"""Cross-validated benchmarking: metrics, grid search, interval scoring and
the comparison report. The synthetic generator lives in `synthetic`."""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from .data import (
    Dataset,
    EncodedMatrix,
    FeatureSchema,
    encode_once,
    encode_row,
    shared,
    split_kfold,
)
from .models import check_hyperparams, fit_model, model_spec, record_grid, record_scored
from .pipeline import fill_values, fit_imputer, prune_tail
from .synthetic import SyntheticSpec, generate_synthetic  # perfbench's workloads call them here


def median_ae(pred, actual) -> float:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise ValueError("length mismatch")
    if pred.size == 0:
        raise ValueError("empty inputs")
    return float(np.median(np.abs(pred - actual)))


def mean_ae(pred, actual) -> float:
    pred = np.asarray(pred, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if pred.shape != actual.shape:
        raise ValueError("length mismatch")
    if pred.size == 0:
        raise ValueError("empty inputs")
    return float(np.mean(np.abs(pred - actual)))


def interval_coverage(intervals, actual) -> float:
    """Percent of actuals inside [lower, upper], bounds inclusive.

    Accepts (n, 2) or (n, 3) arrays; the first column is the lower bound and
    the last the upper.
    """
    iv = np.asarray(intervals, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if iv.ndim != 2 or iv.shape[0] != actual.shape[0]:
        raise ValueError("length mismatch")
    lower, upper = iv[:, 0], iv[:, -1]
    covered = (lower <= actual) & (actual <= upper)
    return float(100.0 * np.count_nonzero(covered) / actual.size)


@dataclass
class FoldDetail:
    """Preprocessing statistics of one fold, kept for leakage auditing."""

    n_train: int
    n_test: int
    numeric_fill: dict[str, float]
    cap_removed: dict[str, int]


@dataclass
class CVResult:
    name: str
    params: dict
    fold_metrics: list[dict]
    median_ae: float
    mean_ae: float
    coverage_pct: float | None
    param_counts: list[int | None]
    pooled_pred: np.ndarray
    pooled_actual: np.ndarray
    pooled_intervals: np.ndarray | None
    fold_details: list[FoldDetail] = field(default_factory=list)


def _fold_seed(seed: int, fold: int) -> int:
    return int(np.random.SeedSequence([seed, fold]).generate_state(1)[0])


@dataclass(frozen=True)
class PreparedFold:
    """One cross-validation fold after fold-local caps and imputation; the
    refit's dataset, the last entry of `prepare_search`, has no test set
    (None)."""

    train: Dataset
    test: Dataset | None
    actual: np.ndarray
    seed: int
    detail: FoldDetail


def _prepare_fold(train: Dataset, test: Dataset | None, caps: dict | None, seed: int):
    """`train` capped and imputed, and `test`, if any, imputed with the
    training medians, as a PreparedFold fitted with `seed`."""
    cap_removed: dict[str, int] = {}
    for col, cap in (caps or {}).items():
        train, cap_removed[col] = prune_tail(train, col, float(cap))
    imputer = fit_imputer(train)
    train = imputer.transform(train)
    test = None if test is None else imputer.transform(test)
    actual = np.empty(0) if test is None else test.numeric(train.schema.target).data.copy()
    return PreparedFold(
        train=train,
        test=test,
        actual=actual,
        seed=seed,
        detail=FoldDetail(train.n_rows, actual.size, dict(imputer.numeric_fill), cap_removed),
    )


def prepare_folds(
    dataset: Dataset, k: int, seed: int, caps: dict | None = None
) -> list[PreparedFold]:
    """Split `dataset` into k folds and preprocess each one.

    Tail caps, checked first, remove training rows only; imputation medians
    come from the training fold and are applied to its test fold.
    """
    _check_caps(dataset.schema, caps)
    return _prepare_split(dataset, k, seed, caps)


def _prepare_split(dataset: Dataset, k: int, seed: int, caps: dict | None) -> list[PreparedFold]:
    """`prepare_folds`' k folds, its tail caps already checked."""
    return [
        _prepare_fold(dataset.subset(train), dataset.subset(test), caps, _fold_seed(seed, i))
        for i, (train, test) in enumerate(split_kfold(dataset, k, seed))
    ]


def prepare_search(
    dataset: Dataset, k: int, seed: int, caps: dict | None = None
) -> list[PreparedFold]:
    """`prepare_folds`' k folds, then the whole dataset capped and imputed
    the same way: a fold with no test rows, for the winner's refit. Every
    tail cap is checked against the schema, once, before any fold is
    prepared."""
    _check_caps(dataset.schema, caps)
    refit = _prepare_fold(dataset, None, caps, _fold_seed(seed, k))
    return _prepare_split(dataset, k, seed, caps) + [refit]


def _test_matrix(fold: PreparedFold, fit_cache: dict) -> EncodedMatrix:
    """`fold`'s test set in the encoding of its training set, encoded once
    per fit cache and read by every combination's forecasts."""
    matrix, _, encoding = encode_once(fold.train, fit_cache)
    return shared(
        fit_cache,
        "test",
        lambda: EncodedMatrix(encode_row(fold.train.schema, encoding, fold.test), matrix.columns),
    )


def _score(name: str, params: dict, fold: PreparedFold, fit_cache: dict):
    """Fit `name` on `fold` and score its test rows: (point forecasts,
    intervals or None, parameter count). A model whose interval median is
    its point forecast (`ModelSpec.median_is_point`) predicts once, and so
    does a quantile-capable composite: its `predict_point` reads the median
    column of the table its `predict_intervals` of the same rows made."""
    spec = model_spec(name)
    fitted = fit_model(name, fold.train, params, seed=fold.seed, fit_cache=fit_cache)
    test = _test_matrix(fold, fit_cache)
    intervals = fitted.predict_intervals(test) if spec.quantile_capable else None
    pred = intervals[:, 1] if spec.median_is_point else fitted.predict_point(test)
    return pred, intervals, fitted.parameter_count()


def _score_folds(searches: dict[str, list[dict]], folds: list[PreparedFold]) -> dict:
    """`_score` of each combination of each search ({name: combos}) on each
    fold, as {name: [per-fold scores of each combination]}. The folds run one
    by one; each one's fits share a fresh fit cache that serves that fold's
    training set only (see `models.fit_model`) and is dropped when the fold
    is done, so qrf cuts random_forest's forests."""
    scores = {name: [[] for _ in combos] for name, combos in searches.items()}
    for fold in folds:
        fit_cache: dict = {}
        for name, combos in searches.items():
            record_scored(fit_cache, name, combos)
            for params, per_fold in zip(combos, scores[name]):
                per_fold.append(_score(name, params, fold, fit_cache))
    return scores


def cross_validate(
    name: str,
    params: dict,
    dataset: Dataset,
    k: int,
    seed: int,
    caps: dict | None = None,
    *,
    folds: list[PreparedFold] | None = None,
    scores: list[tuple] | None = None,
) -> CVResult:
    """k-fold evaluation with fold-local preprocessing (see `prepare_folds`).

    Aggregates are computed over the pooled test-set absolute errors, not
    per-fold averages. `folds`, when given, must come from
    `prepare_folds(dataset, k, seed, caps)`. `scores`, each fold's `_score`
    (`grid_search` passes those of `_score_folds`), are only pooled here;
    without them `_score_folds` scores `params` as a grid of one.
    """
    if folds is None:
        folds = prepare_folds(dataset, k, seed, caps)
    if scores is None:
        scores = _score_folds({name: [params]}, folds)[name][0]
    preds, intervals, param_counts = zip(*scores)
    pooled_pred = np.concatenate(preds)
    pooled_actual = np.concatenate([fold.actual for fold in folds])
    pooled_iv = None if intervals[0] is None else np.vstack(intervals)
    return CVResult(
        name=name,
        params=dict(params),
        fold_metrics=[
            {"median_ae": median_ae(pred, fold.actual), "mean_ae": mean_ae(pred, fold.actual)}
            for pred, fold in zip(preds, folds)
        ],
        median_ae=median_ae(pooled_pred, pooled_actual),
        mean_ae=mean_ae(pooled_pred, pooled_actual),
        coverage_pct=None if pooled_iv is None else interval_coverage(pooled_iv, pooled_actual),
        param_counts=list(param_counts),
        pooled_pred=pooled_pred,
        pooled_actual=pooled_actual,
        pooled_intervals=pooled_iv,
        fold_details=[fold.detail for fold in folds],
    )


def grid_combinations(grid: dict[str, list]) -> list[dict]:
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


@dataclass
class GridSearchResult:
    name: str
    best_params: dict
    best_cv: CVResult
    evaluations: list[CVResult]
    final_model: object


def _selection_key(index: int, cv: CVResult):
    total = sum(c for c in cv.param_counts if c is not None)
    has_na = any(c is None for c in cv.param_counts)
    return (cv.median_ae, float("inf") if has_na else total, index)


def _search_combinations(name: str, grid: dict[str, list] | None) -> list[dict]:
    """The combinations a search of `name` runs: `grid`'s, or its default
    grid's. An unknown name, an empty grid, or a hyperparameter that `name`'s
    builder does not read or whose value has the wrong type (see
    `check_hyperparams`) raises ValueError."""
    combos = grid_combinations(grid or model_spec(name).grid)
    for combo in combos:
        check_hyperparams(name, combo, "in the grid of")
    if not combos:
        raise ValueError("empty hyperparameter grid")
    return combos


def _check_caps(schema: FeatureSchema, caps: dict | None) -> None:
    """Every tail cap must name a numeric column of `schema` and be
    positive; else ValueError naming the column, its kind and the cap."""
    kinds = dict(schema.columns)
    for col, cap in (caps or {}).items():
        if col not in kinds:
            fault = f"names a missing column: the data has no column {col!r}, only {list(kinds)}"
        elif kinds[col] != "numeric":
            fault = f"names a {kinds[col]} column: only numeric columns can be capped"
        elif not float(cap) > 0:
            fault = f"on the numeric column {col!r}: a cap must be positive"
        else:
            continue
        raise ValueError(f"tail cap {col!r} (cap {cap!r}) {fault}")


def grid_search(
    name: str,
    grid: dict[str, list] | None,
    dataset: Dataset,
    k: int,
    seed: int,
    caps: dict | None = None,
    *,
    folds: list[PreparedFold] | None = None,
    fit_cache: dict | None = None,
    scores: list[list[tuple]] | None = None,
) -> GridSearchResult:
    """Exhaustive search; lowest pooled Median AE wins, ties go to the smaller
    model, then to grid order. The winner is refit on the full dataset, and
    the refit keeps what its imputation filled empty cells with (`fill`).

    The folds and the refit's dataset are prepared and encoded once and
    shared by every combination; `folds`, when given, must come from
    `prepare_search(dataset, k, seed, caps)` (`benchmark` prepares them once
    for all its searches). The combinations are scored fold by fold
    (`_score_folds`) unless their `scores` are given (`benchmark` scores all
    its searches at once). The refit cuts the winner from the grid's widest
    tree, forest or boosting run, grown in `fit_cache`: a fresh dict unless
    the caller shares one across refits (`benchmark` does). A fit cache
    serves one training set, so a shared one must only see the refit's.
    """
    combos = _search_combinations(name, grid)  # before any fold is prepared
    *cv_folds, refit = prepare_search(dataset, k, seed, caps) if folds is None else folds
    if scores is None:
        scores = _score_folds({name: combos}, cv_folds)[name]
    evaluations = [
        cross_validate(name, c, dataset, k, seed, caps, folds=cv_folds, scores=s)
        for c, s in zip(combos, scores)
    ]
    best_i = min(range(len(combos)), key=lambda i: _selection_key(i, evaluations[i]))
    best_params = combos[best_i]
    fit_cache = {} if fit_cache is None else fit_cache
    record_grid(fit_cache, name, combos)
    final_model = replace(
        fit_model(name, refit.train, best_params, seed=refit.seed, fit_cache=fit_cache),
        fill=fill_values(refit.train.schema, refit.detail.numeric_fill),
    )
    return GridSearchResult(
        name=name,
        best_params=best_params,
        best_cv=evaluations[best_i],
        evaluations=evaluations,
        final_model=final_model,
    )


@dataclass
class ModelReport:
    name: str
    display_name: str
    median_ae: float
    mean_ae: float
    param_count: int | None
    coverage_pct: float | None
    fold_metrics: list[dict]
    chosen_hyperparams: dict
    bounds: np.ndarray | None = field(default=None, repr=False)
    bounds_actual: np.ndarray | None = field(default=None, repr=False)


@dataclass
class EvaluationReport:
    models: list[ModelReport]
    k: int
    seed: int
    n_rows: int
    weight_units: str

    def to_json(self) -> str:
        doc = {
            "k": self.k,
            "seed": self.seed,
            "n_rows": self.n_rows,
            "weight_units": self.weight_units,
            "models": [
                {
                    "model": m.display_name,
                    "median_ae": m.median_ae,
                    "mean_ae": m.mean_ae,
                    "param_count": m.param_count,
                    "coverage_pct": m.coverage_pct,
                    "fold_metrics": m.fold_metrics,
                    "chosen_hyperparams": m.chosen_hyperparams,
                }
                for m in self.models
            ],
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        units = self.weight_units
        headers = [
            "Approach",
            f"Median AE (in {units})",
            f"Mean AE (in {units})",
            "Number of parameters",
            "Coverage (%)",
        ]
        rows = [headers]
        for m in self.models:
            rows.append(
                [
                    m.display_name,
                    f"{m.median_ae:.2f}",
                    f"{m.mean_ae:.2f}",
                    "NA" if m.param_count is None else str(m.param_count),
                    "-" if m.coverage_pct is None else f"{m.coverage_pct:.2f}",
                ]
            )
        widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
        lines = []
        for i, r in enumerate(rows):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
            if i == 0:
                lines.append("-" * len(lines[0]))
        return "\n".join(lines) + "\n"


def benchmark(
    dataset: Dataset,
    model_names: list[str],
    grids: dict[str, dict] | None = None,
    k: int = 5,
    seed: int = 0,
    caps: dict | None = None,
    threads: int = 1,
) -> EvaluationReport:
    """Grid-search every requested model and assemble the comparison table.

    Rows keep the input order; numbers come from the winning combination's
    pooled cross-validation run, parameter counts from the full-data refit.
    Every name and grid is checked first. The folds and the refit's dataset
    are then prepared, imputed and encoded once, every search is scored on
    them in one fold-by-fold pass (`_score_folds`), and the refits share one
    fit cache.

    Searches run serially; `threads` accepts only 1.
    """
    if threads != 1:
        raise ValueError(f"threads={threads!r}: searches run serially, so threads must be 1")
    grids = grids or {}
    searches = {name: _search_combinations(name, grids.get(name)) for name in model_names}
    folds = prepare_search(dataset, k, seed, caps)
    scores = _score_folds(searches, folds[:-1])
    refit_cache: dict = {}
    reports = []
    for name in model_names:
        result = grid_search(
            name, grids.get(name), dataset, k, seed, caps,
            folds=folds, fit_cache=refit_cache, scores=scores[name],
        )
        cv = result.best_cv
        reports.append(
            ModelReport(
                name=name,
                display_name=model_spec(name).display_name,
                median_ae=cv.median_ae,
                mean_ae=cv.mean_ae,
                param_count=result.final_model.parameter_count(),
                coverage_pct=cv.coverage_pct,
                fold_metrics=cv.fold_metrics,
                chosen_hyperparams=result.best_params,
                bounds=cv.pooled_intervals,
                bounds_actual=cv.pooled_actual,
            )
        )
    return EvaluationReport(
        models=reports,
        k=k,
        seed=seed,
        n_rows=dataset.n_rows,
        weight_units=dataset.schema.weight_units,
    )
