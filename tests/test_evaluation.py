import json

import numpy as np
import pytest

from partqr.data import Dataset, FeatureSchema
from partqr.evaluation import (
    CVResult,
    SyntheticSpec,
    _fold_seed,
    _selection_key,
    benchmark,
    cross_validate,
    generate_synthetic,
    grid_combinations,
    grid_search,
    interval_coverage,
    mean_ae,
    median_ae,
    mixture_cdf,
    mixture_quantile,
    synthetic_true_quantile_rows,
)
from partqr.models import fit_model
from partqr.pipeline import fit_imputer, prune_tail
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

    def test_threads_same_answer(self):
        ds = leaky_dataset(40)
        grid = {"max_depth": [1, 2], "min_samples_split": [2, 5]}
        a = grid_search("decision_tree", grid, ds, 4, seed=1, threads=1)
        b = grid_search("decision_tree", grid, ds, 4, seed=1, threads=4)
        assert a.best_params == b.best_params
        assert [e.median_ae for e in a.evaluations] == [e.median_ae for e in b.evaluations]


def assert_same_evaluation(a: CVResult, b: CVResult):
    assert a.params == b.params
    assert a.median_ae == b.median_ae
    assert a.mean_ae == b.mean_ae
    assert a.param_counts == b.param_counts
    assert a.pooled_pred.tobytes() == b.pooled_pred.tobytes()
    assert a.pooled_intervals.tobytes() == b.pooled_intervals.tobytes()


class TestGridSearchSharing:
    """Shared folds and memoised partition fits change no evaluation."""

    def dataset(self):
        return generate_synthetic(SyntheticSpec(n_projects=160, seed=12, contamination=0.05))

    @pytest.mark.parametrize(
        "name,grid",
        [
            ("quantile_tree", {"lam": [0.0, 0.1], "max_depth": [1, 2], "min_samples_split": [10, 60]}),
            ("piecewise_qr", {"lam": [0.01, 1.0], "n_clusters": [1, 2, 3]}),
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

    def test_quantile_tree_threads_same_answer(self):
        ds = self.dataset()
        grid = {"lam": [0.0, 0.1], "max_depth": [1, 2], "min_samples_split": [10, 60]}
        a = grid_search("quantile_tree", grid, ds, 4, seed=6, threads=1)
        b = grid_search("quantile_tree", grid, ds, 4, seed=6, threads=2)
        assert a.best_params == b.best_params
        for x, y in zip(a.evaluations, b.evaluations):
            assert_same_evaluation(x, y)


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
