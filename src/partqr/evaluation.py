"""Cross-validated benchmarking: metrics, grid search, interval scoring, the
synthetic cascading-delay generator, and the comparison report."""

from __future__ import annotations

import itertools
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr, ndtri

from .data import Dataset, FeatureSchema, split_kfold
from .models import DISPLAY_NAMES, QUANTILE_CAPABLE, default_grid, fit_model
from .pipeline import fit_imputer, prune_tail


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


def _prepare_fold(train: Dataset, test: Dataset | None, caps: dict | None):
    detail_caps: dict[str, int] = {}
    if caps:
        for col, cap in caps.items():
            train, removed = prune_tail(train, col, float(cap))
            detail_caps[col] = removed
    imputer = fit_imputer(train)
    train = imputer.transform(train)
    if test is not None:
        test = imputer.transform(test)
    return train, test, imputer, detail_caps


@dataclass(frozen=True)
class PreparedFold:
    """One cross-validation fold after fold-local caps and imputation."""

    train: Dataset
    test_rows: list
    actual: np.ndarray
    seed: int
    detail: FoldDetail


def prepare_folds(
    dataset: Dataset, k: int, seed: int, caps: dict | None = None
) -> list[PreparedFold]:
    """Split `dataset` into k folds and preprocess each one.

    Tail caps remove training rows only; imputation medians come from the
    training fold and are applied to its test fold.
    """
    folds = []
    for fold_idx, (train_idx, test_idx) in enumerate(split_kfold(dataset, k, seed)):
        train, test, imputer, cap_removed = _prepare_fold(
            dataset.subset(train_idx), dataset.subset(test_idx), caps
        )
        rows = list(test.rows)
        target_j = test.schema.index_of(test.schema.target)
        folds.append(
            PreparedFold(
                train=train,
                test_rows=rows,
                actual=np.array([float(r[target_j]) for r in rows]),
                seed=_fold_seed(seed, fold_idx),
                detail=FoldDetail(
                    n_train=train.n_rows,
                    n_test=test.n_rows,
                    numeric_fill=dict(imputer.numeric_fill),
                    cap_removed=cap_removed,
                ),
            )
        )
    return folds


def cross_validate(
    name: str,
    params: dict,
    dataset: Dataset,
    k: int,
    seed: int,
    caps: dict | None = None,
    *,
    folds: list[PreparedFold] | None = None,
    fit_cache: dict | None = None,
) -> CVResult:
    """k-fold evaluation with fold-local preprocessing (see `prepare_folds`).

    Aggregates are computed over the pooled test-set absolute errors, not
    per-fold averages. `folds`, when given, must come from
    `prepare_folds(dataset, k, seed, caps)`; `fit_cache` memoises partition
    quantile fits by content (see `fit_composite`). `grid_search` passes the
    same folds and cache to every combination.
    """
    if folds is None:
        folds = prepare_folds(dataset, k, seed, caps)
    fold_metrics = []
    param_counts = []
    preds, intervals = [], []
    capable = name in QUANTILE_CAPABLE
    for fold in folds:
        fitted = fit_model(name, fold.train, params, seed=fold.seed, fit_cache=fit_cache)
        pred = fitted.predict_point(fold.test_rows)
        fold_metrics.append(
            {"median_ae": median_ae(pred, fold.actual), "mean_ae": mean_ae(pred, fold.actual)}
        )
        param_counts.append(fitted.parameter_count())
        preds.append(pred)
        if capable:
            intervals.append(fitted.predict_intervals(fold.test_rows))
    pooled_pred = np.concatenate(preds)
    pooled_actual = np.concatenate([fold.actual for fold in folds])
    pooled_iv = np.vstack(intervals) if capable else None
    return CVResult(
        name=name,
        params=dict(params),
        fold_metrics=fold_metrics,
        median_ae=median_ae(pooled_pred, pooled_actual),
        mean_ae=mean_ae(pooled_pred, pooled_actual),
        coverage_pct=interval_coverage(pooled_iv, pooled_actual) if capable else None,
        param_counts=param_counts,
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


def grid_search(
    name: str,
    grid: dict[str, list] | None,
    dataset: Dataset,
    k: int,
    seed: int,
    caps: dict | None = None,
    threads: int = 1,
) -> GridSearchResult:
    """Exhaustive search; lowest pooled Median AE wins, ties go to the smaller
    model, then to grid order. The winner is refit on the full dataset.

    The folds are prepared once and shared by every combination, and the
    partition quantile fits are memoised for the length of the search, so
    identical partitions under different tree settings are solved once.
    """
    grid = grid if grid else default_grid(name)
    combos = grid_combinations(grid)
    if not combos:
        raise ValueError("empty hyperparameter grid")

    folds = prepare_folds(dataset, k, seed, caps)
    fit_cache: dict = {}

    def evaluate(combo):
        return cross_validate(
            name, combo, dataset, k, seed, caps, folds=folds, fit_cache=fit_cache
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            evaluations = list(pool.map(evaluate, combos))
    else:
        evaluations = [evaluate(c) for c in combos]

    best_i = min(range(len(combos)), key=lambda i: _selection_key(i, evaluations[i]))
    best_params = combos[best_i]
    train, _, _, _ = _prepare_fold(dataset, None, caps)
    final_model = fit_model(name, train, best_params, seed=_fold_seed(seed, k))
    return GridSearchResult(
        name=name,
        best_params=best_params,
        best_cv=evaluations[best_i],
        evaluations=evaluations,
        final_model=final_model,
    )


@dataclass(frozen=True)
class SyntheticSpec:
    """Cascading-delay generator: intermediate durations feed later ones, the
    target is linear in all of them plus a site-category effect, noise scales
    vary by category, and a long-tail exponential delay hits with probability
    `contamination`. Every parameter is recorded so the true conditional
    quantiles stay computable."""

    n_projects: int
    seed: int
    categories: tuple[str, ...] = ("metro", "suburban", "remote")
    category_probs: tuple[float, ...] | None = None
    category_effects: tuple[float, ...] = (0.0, 6.0, 14.0)
    noise_scales: tuple[float, ...] = (2.0, 4.0, 8.0)
    base_durations: tuple[float, ...] = (12.0, 18.0, 25.0, 15.0)
    cascade_weights: tuple[tuple[float, ...], ...] = (
        (),
        (0.4,),
        (0.2, 0.3),
        (0.1, 0.0, 0.5),
    )
    target_coeffs: tuple[float, ...] = (0.6, 0.9, 0.5, 0.8)
    target_intercept: float = 8.0
    contamination: float = 0.0
    tail_scale: float = 40.0

    def __post_init__(self):
        if self.n_projects < 1:
            raise ValueError("n_projects must be positive")
        if not 0 <= self.contamination < 1:
            raise ValueError("contamination must lie in [0, 1)")
        if len(self.category_effects) != len(self.categories) or len(
            self.noise_scales
        ) != len(self.categories):
            raise ValueError("per-category parameter lengths must match categories")
        J = len(self.base_durations)
        if len(self.cascade_weights) != J or any(
            len(w) != j for j, w in enumerate(self.cascade_weights)
        ):
            raise ValueError("cascade_weights must be lower-triangular with one row per step")
        if any(w < 0 for row in self.cascade_weights for w in row):
            raise ValueError("cascade weights must be nonnegative")
        if len(self.target_coeffs) != J:
            raise ValueError("target_coeffs length must match base_durations")
        if self.category_probs is not None and len(self.category_probs) != len(self.categories):
            raise ValueError("category_probs length must match categories")

    @property
    def n_steps(self) -> int:
        return len(self.base_durations)


def synthetic_schema(spec: SyntheticSpec) -> FeatureSchema:
    columns = [("site_category", "categorical")]
    columns += [(f"step{j + 1}_days", "numeric") for j in range(spec.n_steps)]
    columns += [("target_days", "numeric")]
    return FeatureSchema(tuple(columns), target="target_days", weight_units="days")


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    rng = np.random.default_rng(spec.seed)
    probs = spec.category_probs
    rows = []
    for _ in range(spec.n_projects):
        c = int(rng.choice(len(spec.categories), p=probs))
        sigma = spec.noise_scales[c]
        durations = []
        for j in range(spec.n_steps):
            d = spec.base_durations[j] + sum(
                w * durations[i] for i, w in enumerate(spec.cascade_weights[j])
            )
            d += rng.standard_normal() * sigma
            durations.append(d)
        target = (
            spec.target_intercept
            + sum(g * d for g, d in zip(spec.target_coeffs, durations))
            + spec.category_effects[c]
            + rng.standard_normal() * sigma
        )
        if rng.random() < spec.contamination:
            target += rng.exponential(spec.tail_scale)
        rows.append((spec.categories[c], *durations, target))
    return Dataset(synthetic_schema(spec), tuple(rows))


def _emg_cdf(s: float, sigma: float, tau: float) -> float:
    """CDF of Normal(0, sigma^2) + Exponential(mean tau) at s."""
    if sigma == 0.0:
        return float(max(0.0, 1.0 - np.exp(-s / tau))) if s > 0 else 0.0
    u = s / sigma
    v = sigma / tau
    log_term = log_ndtr(u - v) + 0.5 * v * v - s / tau
    return float(ndtr(u) - np.exp(log_term))


def mixture_cdf(s: float, sigma: float, rho: float, tau: float) -> float:
    """CDF of the target noise: Normal plus, with probability rho, an
    exponential long-tail delay."""
    base = (1.0 if s >= 0 else 0.0) if sigma == 0.0 else float(ndtr(s / sigma))
    if rho == 0.0:
        return base
    return (1.0 - rho) * base + rho * _emg_cdf(s, sigma, tau)


def mixture_quantile(alpha: float, sigma: float, rho: float, tau: float) -> float:
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if rho == 0.0:
        return 0.0 if sigma == 0.0 else float(sigma * ndtri(alpha))
    if sigma == 0.0:
        if alpha <= 1.0 - rho:
            return 0.0
        return float(-tau * np.log((1.0 - alpha) / rho))
    lo = float(sigma * ndtri(alpha)) - 1.0
    hi = max(1.0, float(sigma * ndtri(alpha))) + tau
    while mixture_cdf(hi, sigma, rho, tau) < alpha:
        hi = hi * 2 + tau
    return float(brentq(lambda s: mixture_cdf(s, sigma, rho, tau) - alpha, lo, hi, xtol=1e-12))


def synthetic_true_quantile(spec: SyntheticSpec, category: str, durations, alpha: float) -> float:
    """True conditional alpha-quantile of the target given the observed row."""
    c = spec.categories.index(category)
    mu = (
        spec.target_intercept
        + sum(g * float(d) for g, d in zip(spec.target_coeffs, durations))
        + spec.category_effects[c]
    )
    return mu + mixture_quantile(alpha, spec.noise_scales[c], spec.contamination, spec.tail_scale)


def synthetic_true_quantile_rows(spec: SyntheticSpec, dataset: Dataset, alpha: float) -> np.ndarray:
    out = np.empty(dataset.n_rows)
    for i, row in enumerate(dataset.rows):
        out[i] = synthetic_true_quantile(spec, row[0], row[1 : 1 + spec.n_steps], alpha)
    return out


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
    """
    grids = grids or {}
    reports = []
    for name in model_names:
        result = grid_search(name, grids.get(name), dataset, k, seed, caps, threads=threads)
        cv = result.best_cv
        reports.append(
            ModelReport(
                name=name,
                display_name=DISPLAY_NAMES[name],
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
