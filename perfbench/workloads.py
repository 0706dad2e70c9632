"""The three seeded workloads: inputs, the timed operation and its checks.

Each workload writes its inputs from the seed, then runs one timed
operation (`run_once`) as often as the run allows. The program sees only the
generated CSV and config files, or a generated `Dataset` for the library
call. Checks run outside the timed region and record every breach in a
`Ledger`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time

import numpy as np

from partqr import cli, evaluation, models, serialize


class Ledger:
    """Operations attempted and failed; a failed check is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.breaches: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.breaches.append(what)


def _run_cli(ledger: Ledger, argv: list[str]) -> None:
    """In-process `partqr ...` with its output captured; checks the exit code."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    ledger.check(code == 0, f"partqr {' '.join(argv)} exited {code}: {sink.getvalue()[-500:]}")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _dataset_csv(path, dataset) -> None:
    header = [name for name, _ in dataset.schema.columns]
    _write_csv(path, header, ([_cell(v) for v in row] for row in dataset.rows))


def _coverage_gap(intervals: np.ndarray, actual: np.ndarray) -> float:
    return abs(evaluation.interval_coverage(intervals, actual) - 90.0)


def _sub_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


class Workload:
    name = ""
    # traced functions that must record at least one call
    expected_nonzero: tuple[str, ...] = ()

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._first_outputs: dict[str, bytes] = {}

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, ledger: Ledger) -> None:
        raise NotImplementedError

    def parts(self, ledger: Ledger):
        """Yield (name, run) for each timed part of one operation."""
        raise NotImplementedError

    def run_once(self, ledger: Ledger, sampler=None) -> dict[str, float]:
        """One operation: the wall time of each part and their sum `wall_s`.
        With a `KernelSampler`, each part's time excludes the kernel runs and
        is also divided by the kernel's mean time, summed in `wall_ref`."""
        out = {"wall_s": 0.0, "wall_ref": 0.0}
        for name, run in self.parts(ledger):
            if sampler:
                elapsed, kernel_s = sampler.measure(run)
                out["wall_ref"] += elapsed / kernel_s
            else:
                start = time.perf_counter()
                run()
                elapsed = time.perf_counter() - start
            out[name] = elapsed
            out["wall_s"] += elapsed
        return out

    def check_outputs(self, ledger: Ledger) -> None:
        """Cheap untimed checks of what the last operation wrote."""
        raise NotImplementedError

    def verify(self, ledger: Ledger) -> None:
        """Costlier checks, made once after the last operation."""

    def exact_counts(self) -> dict[str, int]:
        """Traced call counts fixed by the workload's shape."""
        return {}

    def rows_per_s(self, sample: dict[str, float]) -> dict[str, float]:
        """`partqr predict` rows per second of each model in one operation."""
        return {name: 0.0 for name in PREDICT_BATCH_ROWS}

    def quality(self) -> tuple[float, float]:
        """(Median AE, coverage gap in points) of the last checked outputs."""
        return self._quality

    def output_bytes(self) -> int:
        return sum(len(b) for b in self._first_outputs.values())

    def same_as_first(self, ledger: Ledger, label: str, path: str) -> bytes:
        """Check that `path` holds the bytes it held the first time."""
        with open(path, "rb") as fh:
            data = fh.read()
        first = self._first_outputs.setdefault(label, data)
        ledger.check(data == first, f"{label}: bytes differ between two runs of seed {self.seed}")
        return data


# -- qtree-grid ---------------------------------------------------------------

QTREE_ROWS = 2000
QTREE_BLANK_RATE = 0.02
QTREE_TAIL_CAP = 12.0
QTREE_FOLDS = 5
# depths 1 and 2 give models of nearly one size, so the model file stays about
# the same size whichever depth the search selects for a seed
QTREE_GRID = {"lam": [0.01, 1.0], "max_depth": [1, 2], "min_samples_split": [10, 100]}


def two_regime_rows(n: int, seed: int, blank_rate: float) -> list[tuple[str, str, str]]:
    """The two-regime set of tests/test_acceptance.py::two_regime_dataset as
    CSV cells, with a share `blank_rate` of the duration cells left empty."""
    rng = np.random.default_rng(seed)
    cat = rng.choice(["east", "west"], n)
    x = rng.uniform(0, 8, n)
    noise = np.where(cat == "east", 0.5, 1.5)
    y = np.where(cat == "east", x, 10 - x) + rng.standard_normal(n) * noise
    blank = rng.random(n) < blank_rate
    return [
        (str(c), "" if b else repr(float(a)), repr(float(t)))
        for c, a, t, b in zip(cat, x, y, blank)
    ]


class QtreeGrid(Workload):
    """`partqr train` of quantile_tree by 5-fold grid search: the cost that
    dominates today. Quantile LPs take most of the time, and each fold is
    prepared, encoded and partitioned again for every combination."""

    name = "qtree-grid"
    expected_nonzero = (
        "cli.cmd_train", "data.read_csv", "data.dataset_from_csv", "data.encode",
        "data.encode_row", "pipeline.fit_imputer", "pipeline.prune_tail",
        "partition.build_cart", "partition.route", "linear.fit_quantile",
        "linear.predict_linear", "composite.fit_composite", "composite.predict_quantile",
        "models.fit_model", "models.CompositeFit.predict_point",
        "models.CompositeFit.predict_intervals", "evaluation.grid_search",
        "evaluation.cross_validate", "serialize.save_model",
    )

    def setup(self, ledger: Ledger) -> None:
        rows = two_regime_rows(QTREE_ROWS, self.seed, QTREE_BLANK_RATE)
        _write_csv(self.path("train.csv"), ("region", "duration", "target"), rows)
        config = {
            "data": {"path": self.path("train.csv"), "format": "generic-csv", "target": "target"},
            "pipeline": {"tail_caps": {"target": QTREE_TAIL_CAP}},
            "model": {"name": "quantile_tree", "grid": QTREE_GRID},
            "cv": {"folds": QTREE_FOLDS, "seed": self.seed},
            "output": {"model_path": self.path("model.json"), "fit_report": self.path("report.json")},
            "threads": 1,
        }
        with open(self.path("config.json"), "w", encoding="utf-8") as fh:
            json.dump(config, fh, indent=2)

    def parts(self, ledger: Ledger):
        yield "train_s", lambda: _run_cli(ledger, ["train", "--config", self.path("config.json")])

    def check_outputs(self, ledger: Ledger) -> None:
        self.same_as_first(ledger, "model.json", self.path("model.json"))
        report = json.loads(self.same_as_first(ledger, "report.json", self.path("report.json")))
        cv = report["cv"]
        self._quality = (cv["median_ae"], abs(cv["coverage_pct"] - 90.0))
        ledger.check(
            all(math.isfinite(v) for v in (cv["median_ae"], cv["mean_ae"], cv["coverage_pct"])),
            "non-finite cross-validation metric in report.json",
        )

    def verify(self, ledger: Ledger) -> None:
        fitted = serialize.load_model(self.path("model.json"))
        with open(self.path("train.csv"), newline="", encoding="utf-8") as fh:
            complete = [r for r in list(csv.reader(fh))[1:] if all(r)]
        rows = [(c, float(a), float(t)) for c, a, t in complete[:200]]
        ledger.check(
            bool(np.isfinite(fitted.predict_intervals(rows)).all()),
            "non-finite forecast from the trained model",
        )

    def exact_counts(self) -> dict[str, int]:
        combos = math.prod(len(v) for v in QTREE_GRID.values())
        return {
            "cli.cmd_train.calls": 1,
            "evaluation.grid_search.calls": 1,
            "evaluation.cross_validate.calls": combos,
            "models.fit_model.calls": combos * QTREE_FOLDS + 1,
            "serialize.save_model.calls": 1,
        }


# -- ensemble-grid --------------------------------------------------------------

ENSEMBLE_ROWS = 1200
ENSEMBLE_FOLDS = 5
ENSEMBLE_MODELS = ("ridge", "piecewise_rr", "decision_tree", "random_forest", "qrf", "gradient_boosting")
# the trimmed grids of scripts/run_synthetic_benchmark.py, with 10 trees per
# forest instead of 50 so that one search fits in a run
ENSEMBLE_GRIDS = {
    "ridge": {"lam": [0.01, 0.1, 1.0]},
    "piecewise_rr": {"lam": [0.1], "n_clusters": [2, 4]},
    "decision_tree": {"max_depth": [2, 4, 8], "min_samples_split": [10, 30]},
    "random_forest": {"max_depth": [4, 8], "min_samples_split": [10], "n_trees": [10]},
    "qrf": {"max_depth": [4, 8], "min_samples_split": [10], "n_trees": [10]},
    "gradient_boosting": {"n_stages": [50], "learning_rate": [0.1]},
}


class EnsembleGrid(Workload):
    """`evaluation.benchmark` of ridge, piecewise RR and the tree ensembles:
    training that solves no quantile LP. CART builds and per-row forest
    prediction take the time, and a change to the LP path should not move
    it."""

    name = "ensemble-grid"
    expected_nonzero = (
        "data.encode", "data.encode_row", "pipeline.fit_imputer", "partition.build_cart",
        "partition.fit_kmeans", "partition.assign_cluster", "linear.fit_ridge",
        "linear.predict_linear", "baselines.fit_rf", "baselines.fit_gb", "baselines.predict_rf",
        "baselines.predict_gb", "baselines.qrf_predict", "composite.fit_composite",
        "composite.predict_quantile", "models.fit_model", "models.CompositeFit.predict_point",
        "models.BaselineFit.predict_point", "models.BaselineFit.predict_intervals",
        "evaluation.grid_search", "evaluation.cross_validate",
    )

    def setup(self, ledger: Ledger) -> None:
        spec = evaluation.SyntheticSpec(n_projects=ENSEMBLE_ROWS, seed=self.seed, contamination=0.05)
        self.dataset = evaluation.generate_synthetic(spec)

    def _benchmark(self) -> None:
        self.report = evaluation.benchmark(
            self.dataset, list(ENSEMBLE_MODELS), grids=ENSEMBLE_GRIDS,
            k=ENSEMBLE_FOLDS, seed=self.seed, threads=1,
        )
        with open(self.path("report.json"), "w", encoding="utf-8") as fh:
            fh.write(self.report.to_json())

    def parts(self, ledger: Ledger):
        yield "benchmark_s", self._benchmark

    def check_outputs(self, ledger: Ledger) -> None:
        self.same_as_first(ledger, "report.json", self.path("report.json"))
        models = self.report.models
        for m in models:
            ledger.check(
                math.isfinite(m.median_ae) and math.isfinite(m.mean_ae),
                f"{m.name}: non-finite cross-validation metric",
            )
            if m.bounds is not None:
                ledger.check(bool(np.isfinite(m.bounds).all()), f"{m.name}: non-finite interval")
        gaps = [_coverage_gap(m.bounds, m.bounds_actual) for m in models if m.bounds is not None]
        self._quality = (float(np.mean([m.median_ae for m in models])), float(np.mean(gaps)))

    def exact_counts(self) -> dict[str, int]:
        combos = [math.prod(len(v) for v in ENSEMBLE_GRIDS[m].values()) for m in ENSEMBLE_MODELS]
        return {
            "evaluation.grid_search.calls": len(ENSEMBLE_MODELS),
            "evaluation.cross_validate.calls": sum(combos),
            "models.fit_model.calls": sum(c * ENSEMBLE_FOLDS + 1 for c in combos),
            "linear.fit_quantile.calls": 0,
        }


# -- predict-batch --------------------------------------------------------------

PREDICT_TRAIN_ROWS = 1200
PREDICT_PARAMS = {
    "quantile_tree": {"lam": 0.1, "max_depth": 4, "min_samples_split": 30},
    "piecewise_qr": {"lam": 0.1, "n_clusters": 4},
    "qrf": {"max_depth": 8, "min_samples_split": 10, "n_trees": 30},
    "gradient_boosting": {"n_stages": 50, "learning_rate": 0.1},
    "nn_qr": {"lam": 0.1, "n_neighbors": 50},
}
# rows per model, sized so that each model takes a similar share of the run
PREDICT_BATCH_ROWS = {
    "quantile_tree": 5000,
    "piecewise_qr": 3300,
    "qrf": 150,
    "gradient_boosting": 3300,
    "nn_qr": 16,
}
QUANTILE_CAPABLE = ("quantile_tree", "piecewise_qr", "qrf", "nn_qr")
# held-out rows on which each model's accuracy is scored, from the first row:
# its whole batch, or more where the batch is too short for a steady Median AE
QUALITY_ROWS = {
    "quantile_tree": 5000,
    "piecewise_qr": 3300,
    "qrf": 500,
    "gradient_boosting": 3300,
    "nn_qr": 128,
}


def _read_predictions(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 3)


class PredictBatch(Workload):
    """`partqr predict` of held-out CSV batches with five saved models: the
    scoring side, with no fitting in the timed part. Model load, CSV parsing,
    per-row encoding, tree walks, QRF weights and nn_qr's per-query LPs take
    the time."""

    name = "predict-batch"
    expected_nonzero = (
        "cli.cmd_predict", "data.read_csv", "data.encode", "data.encode_row",
        "partition.build_cart", "partition.route", "partition.fit_kmeans",
        "partition.assign_cluster", "partition.knn_query", "linear.fit_quantile",
        "linear.predict_linear", "baselines.fit_rf", "baselines.fit_gb", "baselines.predict_gb",
        "baselines.qrf_predict", "composite.fit_composite", "composite.predict_quantile",
        "models.fit_model", "models.CompositeFit.predict_intervals",
        "models.BaselineFit.predict_point", "models.BaselineFit.predict_intervals",
        "serialize.save_model", "serialize.load_model",
    )

    def setup(self, ledger: Ledger) -> None:
        train = evaluation.generate_synthetic(
            evaluation.SyntheticSpec(n_projects=PREDICT_TRAIN_ROWS, seed=self.seed, contamination=0.05)
        )
        held_out = evaluation.generate_synthetic(
            evaluation.SyntheticSpec(
                n_projects=max(QUALITY_ROWS.values()),
                seed=_sub_seed(self.seed, 1),
                contamination=0.05,
            )
        )
        for name, params in PREDICT_PARAMS.items():
            fitted = models.fit_model(name, train, params, seed=self.seed)
            serialize.save_model(self.path(f"{name}.model.json"), fitted)
            self.same_as_first(ledger, f"{name}.model.json", self.path(f"{name}.model.json"))
            batch = held_out.subset(range(PREDICT_BATCH_ROWS[name]))
            _dataset_csv(self.path(f"{name}.batch.csv"), batch)
        self.held_out = held_out

    def parts(self, ledger: Ledger):
        for name in PREDICT_BATCH_ROWS:
            argv = [
                "predict", "--model", self.path(f"{name}.model.json"),
                "--input", self.path(f"{name}.batch.csv"),
                "--output", self.path(f"{name}.predictions.csv"),
            ]
            yield f"predict_s.{name}", lambda argv=argv: _run_cli(ledger, argv)

    def check_outputs(self, ledger: Ledger) -> None:
        for name in PREDICT_BATCH_ROWS:
            path = self.path(f"{name}.predictions.csv")
            self.same_as_first(ledger, f"{name}.predictions.csv", path)
            got = _read_predictions(path)
            ledger.check(bool(np.isfinite(got).all()), f"{name}: non-finite forecast")

    def verify(self, ledger: Ledger) -> None:
        rows = list(self.held_out.rows)
        actual = np.array(self.held_out.column(self.held_out.schema.target), dtype=float)
        maes, gaps = [], []
        for name, n in PREDICT_BATCH_ROWS.items():
            fitted = serialize.load_model(self.path(f"{name}.model.json"))
            scored = rows[: QUALITY_ROWS[name]]
            want = fitted.predict_intervals(scored)
            if want is None:
                point = fitted.predict_point(scored)
                want = np.column_stack([point, point, point])
            got = _read_predictions(self.path(f"{name}.predictions.csv"))
            ledger.check(
                np.array_equal(got, want[:n]),
                f"{name}: partqr predict differs from load_model(...).predict_intervals",
            )
            truth = actual[: len(scored)]
            maes.append(evaluation.median_ae(want[:, 1], truth))
            if name in QUANTILE_CAPABLE:
                gaps.append(_coverage_gap(want, truth))
        self._quality = (float(np.mean(maes)), float(np.mean(gaps)))

    def rows_per_s(self, sample: dict[str, float]) -> dict[str, float]:
        return {name: rows / sample[f"predict_s.{name}"] for name, rows in PREDICT_BATCH_ROWS.items()}

    def exact_counts(self) -> dict[str, int]:
        n = len(PREDICT_PARAMS)
        return {
            "models.fit_model.calls": n,
            "serialize.save_model.calls": n,
            "serialize.load_model.calls": n,
            "cli.cmd_predict.calls": n,
            "evaluation.cross_validate.calls": 0,
        }


WORKLOADS = {w.name: w for w in (QtreeGrid, EnsembleGrid, PredictBatch)}
