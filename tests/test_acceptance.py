"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criteria with stated runtime budgets assert them.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import assert_tree_equals_oracle, cart_oracle, qrf_oracle, quantile_grid_oracle, ridge_oracle

from partqr.baselines import fit_gb, fit_rf, qrf_predict, qrf_weights
from partqr.composite import fit_composite, predict_quantile, resolve_partition
from partqr.data import Dataset, FeatureSchema, encode, encode_row
from partqr.evaluation import grid_search, interval_coverage
from partqr.linear import fit_quantile, fit_ridge, predict_linear
from partqr.models import CompositeFit
from partqr.partition import build_cart
from partqr.synthetic import SyntheticSpec, generate_synthetic


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: PASS  {detail}", flush=True)


def two_regime_dataset(n=2000, seed=77):
    """Heteroscedastic linear regimes separable by the category split."""
    rng = np.random.default_rng(seed)
    cat = rng.choice(["east", "west"], n)
    x = rng.uniform(0, 8, n)
    noise = np.where(cat == "east", 0.5, 1.5)
    y = np.where(cat == "east", x, 10 - x) + rng.standard_normal(n) * noise
    schema = FeatureSchema(
        (("region", "categorical"), ("duration", "numeric"), ("target", "numeric")),
        target="target",
    )
    return Dataset(schema, tuple((c, float(a), float(b)) for c, a, b in zip(cat, x, y)))


def test_criterion_01_qr_solver_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    checked = 0
    for trial in range(50):
        n = int(rng.integers(5, 41))
        p = int(rng.integers(0, 3))
        lam = 0.0 if trial % 2 == 0 else 0.1
        alpha = float(rng.choice([0.1, 0.25, 0.5, 0.75, 0.9]))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_normal(n)
        model = fit_quantile(X, y, alpha, lam)
        if p == 0:
            lo = float(np.min(y)) - 1.0
            hi = float(np.max(y)) + 1.0
            grid = np.linspace(lo, hi, 20001)
            resid = y[None, :] - grid[:, None]
            obj = np.sum(np.where(resid >= 0, alpha * resid, (alpha - 1) * resid), axis=1)
            oracle = float(obj.min())
        else:
            oracle = quantile_grid_oracle(X, y, alpha, lam)
        assert model.objective <= oracle * (1 + 1e-4) + 1e-9, (
            f"trial {trial}: objective {model.objective} vs oracle {oracle}"
        )
        checked += 1
    # intercept-only at the median must equal the empirical median
    for _ in range(10):
        n = int(rng.integers(3, 41))
        y = rng.normal(size=n) * 10
        model = fit_quantile(np.zeros((n, 0)), y, 0.5, 0.0)
        assert abs(model.intercept - float(np.median(y))) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    report(1, f"QR objective within 1e-4 of grid oracle on {checked} instances ({elapsed:.1f}s)")


def test_criterion_02_ridge_matches_closed_form():
    start = time.monotonic()
    rng = np.random.default_rng(1002)
    for _ in range(100):
        p = int(rng.integers(1, 11))
        n = int(rng.integers(max(3 * p, 5), 101))  # full column rank a.s.
        lam = float(rng.choice([0.0, 0.01, 0.1, 1.0, 10.0]))
        X = rng.normal(size=(n, p)) * rng.uniform(0.1, 10.0, size=p)
        y = X @ rng.normal(size=p) + rng.standard_normal(n)
        model = fit_ridge(X, y, lam)
        coef, intercept = ridge_oracle(X, y, lam)
        assert np.max(np.abs(model.coef - coef)) <= 1e-8
        assert abs(model.intercept - intercept) <= 1e-8
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    report(2, f"ridge equals closed-form oracle to 1e-8 on 100 instances ({elapsed:.1f}s)")


def test_criterion_03_cart_split_optimality():
    start = time.monotonic()
    rng = np.random.default_rng(1003)
    for _ in range(20):
        n = int(rng.integers(30, 201))
        p = int(rng.integers(1, 6))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_normal(n)
        tree = build_cart(X, y, max_depth=3, min_samples_split=5, min_samples_leaf=2)
        oracle = cart_oracle(X, y, max_depth=3, min_samples_split=5, min_samples_leaf=2)
        assert_tree_equals_oracle(tree, oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    report(3, f"CART matches exhaustive split oracle node-by-node on 20 datasets ({elapsed:.1f}s)")


def test_criterion_04_partition_sum_and_degenerate_equivalence():
    rng = np.random.default_rng(1004)
    n = 80
    cat = rng.choice(["a", "b", "c"], n)
    x = rng.uniform(0, 10, n)
    y = x + np.array([ord(c) - 97 for c in cat]) * 3.0 + rng.normal(0, 0.5, n)
    schema = FeatureSchema(
        (("site", "categorical"), ("dur", "numeric"), ("y", "numeric")), target="y"
    )
    ds = Dataset(schema, tuple((c, float(a), float(b)) for c, a, b in zip(cat, x, y)))

    # exactly one indicator fires; the sum over partitions equals the prediction
    from partqr.composite import ConstantModel

    for kind, hp in (
        ("quantile_tree", {"max_depth": 2, "min_samples_split": 10}),
        ("piecewise_qr", {"n_clusters": 3}),
    ):
        model = fit_composite(kind, ds, hp)
        for row in ds.rows[:25]:
            pid = resolve_partition(model, [row])[0]
            x_enc = encode_row(schema, model.encoding, [row])
            total = 0.0
            fired = 0
            for p, table in model.estimators.items():
                indicator = 1 if p == pid else 0
                fired += indicator
                est = table[0.5]
                term = est.value if isinstance(est, ConstantModel) else predict_linear(est, x_enc)[0]
                total += indicator * term
            assert fired == 1
            assert total == predict_quantile(model, [row], 0.5)[0]

    # degenerate partitions all equal the global quantile regression
    matrix, yv, enc = encode(ds)
    global_fits = {a: fit_quantile(matrix, yv, a, 0.0) for a in (0.05, 0.5, 0.95)}
    tree0 = fit_composite("quantile_tree", ds, {"max_depth": 0, "lam": 0.0})
    pq1 = fit_composite("piecewise_qr", ds, {"n_clusters": 1, "lam": 0.0})
    nn_all = fit_composite("nn_qr", ds, {"n_neighbors": n, "lam": 0.0})
    for row in ds.rows[:25]:
        x_enc = encode_row(schema, enc, [row])
        for a in (0.05, 0.5, 0.95):
            want = predict_linear(global_fits[a], x_enc)[0]
            for model in (tree0, pq1, nn_all):
                assert abs(predict_quantile(model, [row], a)[0] - want) <= 1e-6
    report(4, "partition indicator structure exact; degenerate kinds equal global QR to 1e-6")


def test_criterion_05_interval_coverage_on_synthetic():
    start = time.monotonic()
    train = generate_synthetic(SyntheticSpec(n_projects=2000, seed=101, contamination=0.05))
    test = generate_synthetic(SyntheticSpec(n_projects=2000, seed=202, contamination=0.05))
    model = fit_composite(
        "quantile_tree",
        train,
        {"max_depth": 2, "min_samples_split": 30, "min_samples_leaf": 10, "lam": 0.1},
    )
    # (lower, median, upper) per row, crossing repaired by sorting
    intervals = CompositeFit("quantile_tree", {}, model).predict_intervals(test.rows)[:, [0, 2]]
    actual = np.array([r[-1] for r in test.rows])
    cov = interval_coverage(intervals, actual)
    elapsed = time.monotonic() - start
    assert 85.0 <= cov <= 95.0, f"coverage {cov}% outside [85, 95]"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 120s budget"
    report(5, f"(5,95) interval coverage {cov:.2f}% on 2000/2000 heteroscedastic rows ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def complexity_benchmark():
    """Shared grid searches for the complexity-ratio criterion."""
    spec = SyntheticSpec(
        n_projects=1200, seed=101, contamination=0.08, noise_scales=(3.0, 3.0, 3.0)
    )
    ds = generate_synthetic(spec)
    qt = grid_search("quantile_tree", None, ds, 5, seed=3)
    gb = grid_search("gradient_boosting", None, ds, 5, seed=3)
    return qt, gb


def test_criterion_06_model_complexity_ratio(complexity_benchmark):
    qt, gb = complexity_benchmark
    qt_params = qt.final_model.parameter_count()
    gb_params = gb.final_model.parameter_count()
    ratio = qt_params / gb_params
    assert ratio <= 0.10, f"parameter ratio {ratio:.3f} exceeds 10%"
    report(
        6,
        f"selected quantile tree uses {qt_params} parameters vs gradient boosting {gb_params} "
        f"({100 * ratio:.1f}%)",
    )


def test_criterion_07_relative_accuracy_two_regime():
    ds = two_regime_dataset()
    qt = grid_search("quantile_tree", None, ds, 5, seed=9)
    dt = grid_search("decision_tree", None, ds, 5, seed=9)
    gb = grid_search("gradient_boosting", None, ds, 5, seed=9)
    assert qt.best_cv.median_ae <= dt.best_cv.median_ae, (
        f"QT {qt.best_cv.median_ae:.4f} > DT {dt.best_cv.median_ae:.4f}"
    )
    assert qt.best_cv.median_ae <= 1.15 * gb.best_cv.median_ae, (
        f"QT {qt.best_cv.median_ae:.4f} > 1.15 x GB {gb.best_cv.median_ae:.4f}"
    )
    report(
        7,
        f"median AE: quantile tree {qt.best_cv.median_ae:.3f} <= decision tree "
        f"{dt.best_cv.median_ae:.3f} and <= 1.15 x boosting {gb.best_cv.median_ae:.3f}",
    )


def test_criterion_08_qrf_oracle():
    rng = np.random.default_rng(1008)
    for trial in range(20):
        n = int(rng.integers(15, 41))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n) * 5
        forest = fit_rf(
            X,
            y,
            n_trees=int(rng.integers(1, 6)),
            seed=trial,
            max_depth=int(rng.integers(1, 5)),
        )
        for _ in range(5):
            x = rng.normal(size=p)
            w = qrf_weights(forest, x[None])[0]
            assert abs(float(w.sum()) - 1.0) <= 1e-9
            assert (w >= 0).all()
            qs = []
            for alpha in (0.05, 0.25, 0.5, 0.75, 0.95):
                got = qrf_predict(forest, x[None], alpha)[0]
                assert got == qrf_oracle(forest, x, alpha)
                qs.append(got)
            assert all(a <= b for a, b in zip(qs, qs[1:]))
    report(8, "QRF equals brute-force weight oracle exactly on 20 forests; weights sum to 1")


def test_criterion_09_gbm_training_loss():
    rng = np.random.default_rng(1009)
    for _ in range(10):
        n = int(rng.integers(40, 120))
        p = int(rng.integers(1, 4))
        X = rng.normal(size=(n, p))
        y = X @ rng.normal(size=p) + rng.standard_normal(n)
        model = fit_gb(X, y, n_stages=50, learning_rate=0.1, max_depth=2)
        hist = model.sse_history
        assert all(a >= b - 1e-9 for a, b in zip(hist, hist[1:]))
    X = rng.uniform(0, 1, size=(40, 2))
    y = 3.0 * X[:, 0] - 2.0 * X[:, 1]
    model = fit_gb(X, y, n_stages=20, learning_rate=1.0, max_depth=12)
    assert model.sse_history[-1] < 1e-6
    report(9, "boosting SSE monotone over 50 stages x 10 datasets; noiseless SSE < 1e-6 in 20 stages")


def _gwa_dir():
    for candidate in (os.environ.get("PARTQR_GWA_DIR"), "data/gwa"):
        if candidate and os.path.isdir(candidate):
            files = [f for f in os.listdir(candidate) if f.endswith(".csv")]
            if files:
                return candidate, sorted(files)
    return None, []


def test_criterion_10_gwa_public_smoke():
    directory, files = _gwa_dir()
    if directory is None:
        report(10, "SKIPPED (Materna trace not present; set PARTQR_GWA_DIR to run)")
        pytest.skip("GWA trace data not available")
    from partqr.pipeline import build_gwa_dataset

    paths = [os.path.join(directory, f) for f in files[:1]]
    ds = build_gwa_dataset(paths, lag_count=3)
    grids = {
        "quantile_tree": {"lam": [0.1], "max_depth": [2, 4], "min_samples_split": [30]},
        "gradient_boosting": {"n_stages": [50], "learning_rate": [0.1]},
    }
    qt = grid_search("quantile_tree", grids["quantile_tree"], ds, 3, seed=5)
    gb = grid_search("gradient_boosting", grids["gradient_boosting"], ds, 3, seed=5)
    assert qt.best_cv.median_ae <= 1.25 * gb.best_cv.median_ae
    report(
        10,
        f"GWA trace: quantile tree median AE {qt.best_cv.median_ae:.3f} "
        f"<= 1.25 x boosting {gb.best_cv.median_ae:.3f} (MHZ)",
    )


def test_criterion_11_benchmark_determinism(tmp_path):
    from partqr.cli import write_dataset_csv

    ds = generate_synthetic(SyntheticSpec(n_projects=150, seed=3))
    data_path = tmp_path / "data.csv"
    write_dataset_csv(ds, data_path)
    config = {
        "data": {"path": str(data_path), "format": "generic-csv", "target": "target_days"},
        "models": ["quantile_tree"],
        "model": {
            "name": "quantile_tree",
            "grid": {"lam": [0.1], "max_depth": [2], "min_samples_split": [10]},
        },
        "cv": {"folds": 4, "seed": 11},
        "output": {"report_json": str(tmp_path / "report.json")},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")

    from partqr.cli import main

    assert main(["benchmark", "--config", str(config_path)]) == 0
    first = (tmp_path / "report.json").read_bytes()
    assert main(["benchmark", "--config", str(config_path)]) == 0
    second = (tmp_path / "report.json").read_bytes()
    assert first == second
    report(11, "cmd_benchmark produced byte-identical JSON reports across two runs")


def test_criterion_12_pipeline_unit_suite():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_pipeline.py", "-q"],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, f"pipeline suite failed:\n{proc.stdout}\n{proc.stderr}"
    report(12, "every preprocessing operation example passes as stated (pipeline suite green)")
