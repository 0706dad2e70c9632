"""Command-line interface: train, predict, benchmark, synth, inspect.

Exit codes: 0 success, 1 internal error, 2 user/configuration error. Every
command is deterministic given (config, seed) and never mutates input files.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .config import RunConfig, load_config
from .data import Dataset, FeatureSchema, dataset_from_csv, nonempty_rows
from .evaluation import SyntheticSpec, benchmark, generate_synthetic, grid_search
from .models import MODEL_NAMES, MODELS
from .pipeline import (
    build_gwa_dataset,
    build_milestone_dataset,
    fill_missing,
    load_climate_table,
    read_milestone_csv,
    select_categorical,
    select_numeric,
)
from .serialize import load_model, save_model


class UserError(Exception):
    """User/configuration mistake; reported with exit code 2."""


class _Stage:
    """Names the failing pipeline stage in error messages."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None and not isinstance(exc, (UserError, _StageError)):
            raise _StageError(self.name, exc) from exc
        if isinstance(exc, UserError):
            raise _StageError(self.name, exc, user=True) from exc
        return False


class _StageError(Exception):
    def __init__(self, stage: str, cause: Exception, user: bool | None = None):
        super().__init__(f"error in stage '{stage}': {cause}")
        self.stage = stage
        self.user = user if user is not None else isinstance(
            cause, (FileNotFoundError, ValueError, KeyError)
        )


def _load_dataset(cfg: RunConfig) -> Dataset:
    data = cfg.data
    if data.format == "generic-csv":
        if not data.target:
            raise UserError("generic-csv input requires data.target")
        return dataset_from_csv(
            data.path,
            target=data.target,
            delimiter=data.effective_delimiter,
            overrides=data.schema_overrides,
        )
    if data.format == "milestone-csv":
        pl = cfg.pipeline
        if not (pl.source_milestone and pl.target_milestone):
            raise UserError("milestone-csv input requires pipeline.source_milestone and target_milestone")
        records = read_milestone_csv(data.path, delimiter=data.effective_delimiter)
        climate = load_climate_table(pl.climate_table) if pl.climate_table else None
        dataset, report = build_milestone_dataset(
            records,
            pl.source_milestone,
            pl.intermediate_milestones,
            pl.target_milestone,
            climate_table=climate,
        )
        if report.total:
            print(
                f"skipped {report.total} projects "
                f"({report.missing_milestone} missing milestones, "
                f"{report.ordering_violation} ordering violations)",
                file=sys.stderr,
            )
        return dataset
    # gwa-trace: path is one trace file or a directory of them
    paths = (
        sorted(
            os.path.join(data.path, f)
            for f in os.listdir(data.path)
            if f.endswith(".csv")
        )
        if os.path.isdir(data.path)
        else [data.path]
    )
    return build_gwa_dataset(paths, lag_count=cfg.pipeline.lag_count, delimiter=data.effective_delimiter)


def _apply_selection(dataset: Dataset, cfg: RunConfig) -> Dataset:
    """One-shot feature selection per the configured thresholds."""
    pl = cfg.pipeline
    keep_numeric = dataset.schema.numeric_predictors()
    keep_categorical = dataset.schema.categorical_predictors()
    if pl.numeric_r_threshold is not None:
        keep_numeric = select_numeric(dataset, dataset.schema.target, pl.numeric_r_threshold)
    if pl.categorical_p_threshold is not None:
        keep_categorical = select_categorical(
            dataset, dataset.schema.target, pl.categorical_p_threshold
        )
    if (
        pl.numeric_r_threshold is None
        and pl.categorical_p_threshold is None
    ):
        return dataset
    keep = set(keep_numeric) | set(keep_categorical)
    columns = tuple(
        (name, kind)
        for name, kind in dataset.schema.columns
        if name == dataset.schema.target
        or kind in ("date", "identifier")
        or name in keep
    )
    return dataset.project(FeatureSchema(columns, dataset.schema.target, dataset.schema.weight_units))


def write_dataset_csv(dataset: Dataset, path) -> None:
    import csv as _csv

    cells = [
        ["" if v is None else (repr(v) if kind == "numeric" else str(v)) for v in dataset.column(name)]
        for name, kind in dataset.schema.columns
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow([name for name, _ in dataset.schema.columns])
        writer.writerows(zip(*cells))


def cmd_train(args) -> int:
    with _Stage("config"):
        cfg = load_config(args.config)
    with _Stage("ingest"):
        dataset = _load_dataset(cfg)
    with _Stage("feature-selection"):
        dataset = _apply_selection(dataset, cfg)
    with _Stage("grid-search"):
        name = cfg.model.name
        result = grid_search(
            name,
            cfg.model.grid or None,
            dataset,
            cfg.cv.folds,
            cfg.cv.seed,
            caps=cfg.pipeline.tail_caps or None,
        )
    with _Stage("write"):
        model_path = cfg.output.model_path or "model.json"
        save_model(model_path, result.final_model)
        report = {
            "model": name,
            "display_name": MODELS[name].display_name,
            "best_params": result.best_params,
            "cv": {
                "median_ae": result.best_cv.median_ae,
                "mean_ae": result.best_cv.mean_ae,
                "coverage_pct": result.best_cv.coverage_pct,
                "fold_metrics": result.best_cv.fold_metrics,
            },
            "param_count": result.final_model.parameter_count(),
            "evaluations": [
                {
                    "params": e.params,
                    "median_ae": e.median_ae,
                    "mean_ae": e.mean_ae,
                }
                for e in result.evaluations
            ],
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if cfg.output.fit_report:
            with open(cfg.output.fit_report, "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"model written to {model_path}")
        print(
            f"cv median AE {result.best_cv.median_ae:.4f}, "
            f"mean AE {result.best_cv.mean_ae:.4f}, best params {result.best_params}"
        )
    return 0


def cmd_predict(args) -> int:
    with _Stage("load-model"):
        fitted = load_model(args.model)
    with _Stage("read-input"):
        dataset = dataset_from_csv(args.input, target=fitted.schema.target, schema=fitted.schema)
        # empty cells are filled as the training data's were
        dataset = fill_missing(dataset, fitted.fill)
    with _Stage("predict"):
        # (lower, median, upper) per row, or a point forecast that is all three
        forecasts = fitted.predict_intervals(dataset)
        if forecasts is None:
            forecasts = fitted.predict_point(dataset)[:, None]
        # The input is validated at read time, so a non-finite forecast is an
        # internal fault: exit 1 (RuntimeError) before any file is written.
        bad = np.flatnonzero(~np.isfinite(forecasts).all(axis=1))
        if bad.size:
            i = int(bad[0])
            line = nonempty_rows(args.input)[1][i]  # blank lines were skipped
            raise RuntimeError(
                f"{args.input}:{line}: non-finite forecast "
                f"{np.broadcast_to(forecasts[i], 3).tolist()} for input row {i + 1}"
            )
    with _Stage("write"):
        out = args.output or "predictions.csv"
        with open(out, "w", newline="", encoding="utf-8") as fh:
            fh.write("lower,median,upper\n")
            # each forecast is formatted once; a point forecast is written thrice
            cells = [list(map(repr, column)) for column in forecasts.T.tolist()]
            lower, median, upper = cells if len(cells) == 3 else cells * 3
            fh.writelines(map("{},{},{}\n".format, lower, median, upper))
        print(f"{len(dataset)} predictions written to {out}")
    return 0


def cmd_benchmark(args) -> int:
    with _Stage("config"):
        cfg = load_config(args.config)
    with _Stage("ingest"):
        dataset = _load_dataset(cfg)
    with _Stage("feature-selection"):
        dataset = _apply_selection(dataset, cfg)
    with _Stage("benchmark"):
        names = cfg.models or list(MODEL_NAMES)
        # config model.grid applies when a single model is benchmarked;
        # otherwise every model runs its default grid
        grids = {names[0]: cfg.model.grid} if len(names) == 1 and cfg.model.grid else {}
        report = benchmark(
            dataset,
            names,
            grids=grids,
            k=cfg.cv.folds,
            seed=cfg.cv.seed,
            caps=cfg.pipeline.tail_caps or None,
        )
    with _Stage("write"):
        text = report.to_text()
        print(text, end="")
        if cfg.output.report_text:
            with open(cfg.output.report_text, "w", encoding="utf-8") as fh:
                fh.write(text)
        if cfg.output.report_json:
            with open(cfg.output.report_json, "w", encoding="utf-8") as fh:
                fh.write(report.to_json())
        if cfg.output.bounds_dir:
            os.makedirs(cfg.output.bounds_dir, exist_ok=True)
            for m in report.models:
                if m.bounds is None:
                    continue
                path = os.path.join(cfg.output.bounds_dir, f"bounds_{m.name}.csv")
                with open(path, "w", newline="", encoding="utf-8") as fh:
                    fh.write("lower,actual,upper\n")
                    for (lo, _, hi), actual in zip(m.bounds.tolist(), m.bounds_actual.tolist()):
                        fh.write(f"{lo!r},{actual!r},{hi!r}\n")
    return 0


def cmd_synth(args) -> int:
    with _Stage("spec"):
        try:
            with open(args.spec, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError as exc:
            raise UserError(str(exc))
        except json.JSONDecodeError as exc:
            raise UserError(f"{args.spec}: invalid JSON ({exc})")
        for key in ("categories", "category_effects", "noise_scales", "base_durations", "target_coeffs", "category_probs"):
            if key in doc and doc[key] is not None:
                doc[key] = tuple(doc[key])
        if "cascade_weights" in doc:
            doc["cascade_weights"] = tuple(tuple(row) for row in doc["cascade_weights"])
        try:
            spec = SyntheticSpec(**doc)
        except (TypeError, ValueError) as exc:
            raise UserError(f"invalid synthetic spec: {exc}")
    with _Stage("generate"):
        dataset = generate_synthetic(spec)
    with _Stage("write"):
        out = args.output or "synthetic.csv"
        write_dataset_csv(dataset, out)
        sidecar = out + ".truth.json"
        with open(sidecar, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True) + "\n")
        print(f"{dataset.n_rows} rows written to {out}; ground truth in {sidecar}")
    return 0


def cmd_inspect(args) -> int:
    with _Stage("load-model"):
        fitted = load_model(args.model)
    print(f"model: {MODELS[fitted.name].display_name} ({fitted.name})")
    print(f"target: {fitted.schema.target} [{fitted.schema.weight_units}]")
    print(f"params: {json.dumps(fitted.params, sort_keys=True)}")
    for line in fitted.describe():
        print(line)
    count = fitted.parameter_count()
    print(f"parameter count: {'NA' if count is None else count}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partqr",
        description="Milestone completion-time forecasting with partitioned quantile regression.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="grid-search one model and write a model file")
    p_train.add_argument("--config", required=True)
    p_train.set_defaults(func=cmd_train)

    p_pred = sub.add_parser("predict", help="prediction intervals for a CSV of rows")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--output")
    p_pred.set_defaults(func=cmd_predict)

    p_bench = sub.add_parser("benchmark", help="cross-validated model comparison table")
    p_bench.add_argument("--config", required=True)
    p_bench.set_defaults(func=cmd_benchmark)

    p_synth = sub.add_parser("synth", help="generate a synthetic cascading-delay dataset")
    p_synth.add_argument("--spec", required=True)
    p_synth.add_argument("--output")
    p_synth.set_defaults(func=cmd_synth)

    p_inspect = sub.add_parser("inspect", help="print a model file's structure")
    p_inspect.add_argument("--model", required=True)
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2 if exc.user else 1


if __name__ == "__main__":
    sys.exit(main())
