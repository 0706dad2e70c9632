"""Run configuration: a JSON file validated into dataclasses.

The seed is mandatory (no wall-clock default) so every command is reproducible
byte for byte. Unknown keys and wrong-typed values are rejected here, naming
the key, before any data is read.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .data import is_int, is_number
from .models import MODEL_NAMES

DATA_FORMATS = ("milestone-csv", "gwa-trace", "generic-csv")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


@dataclass
class DataConfig:
    path: str
    format: str = "generic-csv"
    delimiter: str | None = None
    target: str | None = None
    schema_overrides: dict[str, str] = field(default_factory=dict)

    @property
    def effective_delimiter(self) -> str:
        if self.delimiter is not None:
            return self.delimiter
        return ";" if self.format == "gwa-trace" else ","


@dataclass
class PipelineConfig:
    source_milestone: str | None = None
    target_milestone: str | None = None
    intermediate_milestones: list[str] = field(default_factory=list)
    tail_caps: dict[str, float] = field(default_factory=dict)
    numeric_r_threshold: float | None = None
    categorical_p_threshold: float | None = None
    lag_count: int = 3
    climate_table: str | None = None


@dataclass
class ModelConfig:
    name: str = "quantile_tree"
    grid: dict[str, list] = field(default_factory=dict)


@dataclass
class CVConfig:
    folds: int = 5
    seed: int = 0


@dataclass
class OutputConfig:
    model_path: str | None = None
    fit_report: str | None = None
    report_json: str | None = None
    report_text: str | None = None
    bounds_dir: str | None = None


@dataclass
class RunConfig:
    data: DataConfig
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    models: list[str] = field(default_factory=list)
    cv: CVConfig = field(default_factory=CVConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


SECTIONS = {
    "data": DataConfig,
    "pipeline": PipelineConfig,
    "model": ModelConfig,
    "cv": CVConfig,
    "output": OutputConfig,
}
# `threads` is no field: searches run serially, and the key accepts only 1
TOP_LEVEL_KEYS = (*SECTIONS, "models", "threads")


def _build(cls, doc: dict, where: str):
    allowed = set(cls.__dataclass_fields__)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    return cls(**doc)


def _require_int(value, where: str) -> None:
    if not is_int(value):
        raise ConfigError(f"{where} must be an integer, not {value!r}")


def _require_number(value, where: str) -> None:
    if not is_number(value):
        raise ConfigError(f"{where} must be a number, not {value!r}")


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")

    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: a config must be a JSON object")
    unknown = set(doc) - set(TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)}; choose from {list(TOP_LEVEL_KEYS)}")
    for key in SECTIONS:
        if not isinstance(doc.get(key, {}), dict):
            raise ConfigError(f"{key} must be a JSON object, not {doc[key]!r}")
    if "path" not in doc.get("data", {}):
        raise ConfigError("config requires data.path")
    if "seed" not in doc.get("cv", {}):
        raise ConfigError("config requires cv.seed (reproducibility is mandatory)")

    models = doc.get("models", [])
    if not isinstance(models, list) or not all(isinstance(m, str) for m in models):
        raise ConfigError(f"models must be a list of model names, not {models!r}")
    cfg = RunConfig(
        models=list(models),
        **{key: _build(cls, doc.get(key, {}), key) for key, cls in SECTIONS.items()},
    )
    _require_int(cfg.cv.folds, "cv.folds")
    _require_int(cfg.cv.seed, "cv.seed")
    _require_int(cfg.pipeline.lag_count, "pipeline.lag_count")
    for key in ("numeric_r_threshold", "categorical_p_threshold"):
        if getattr(cfg.pipeline, key) is not None:
            _require_number(getattr(cfg.pipeline, key), f"pipeline.{key}")
    if not isinstance(cfg.pipeline.tail_caps, dict):
        raise ConfigError(f"pipeline.tail_caps must be a JSON object, not {cfg.pipeline.tail_caps!r}")
    for col, cap in cfg.pipeline.tail_caps.items():
        _require_number(cap, f"pipeline.tail_caps.{col}")
    threads = doc.get("threads", 1)
    _require_int(threads, "threads")
    if threads != 1:
        raise ConfigError(f"threads is {threads}: searches run serially, so threads must be 1")
    if not isinstance(cfg.model.grid, dict):
        raise ConfigError(f"model.grid must be a JSON object, not {cfg.model.grid!r}")
    for key, values in cfg.model.grid.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"model.grid.{key} must be a non-empty list, not {values!r}")
    # names before the data path, so a bad name is named first
    if cfg.model.name not in MODEL_NAMES:
        raise ConfigError(f"unknown model {cfg.model.name!r}; choose from {MODEL_NAMES}")
    unknown = [name for name in cfg.models if name not in MODEL_NAMES]
    if unknown:
        raise ConfigError(f"unknown models {unknown}; choose from {MODEL_NAMES}")
    if cfg.data.format not in DATA_FORMATS:
        raise ConfigError(f"data.format must be one of {DATA_FORMATS}")
    if not os.path.exists(cfg.data.path):
        raise ConfigError(f"data path does not exist: {cfg.data.path}")
    if cfg.pipeline.climate_table and not os.path.exists(cfg.pipeline.climate_table):
        raise ConfigError(f"climate table does not exist: {cfg.pipeline.climate_table}")
    if cfg.cv.folds < 2:
        raise ConfigError("cv.folds must be at least 2")
    return cfg
