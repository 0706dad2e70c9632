"""Run configuration: a JSON file validated into dataclasses.

The seed is mandatory (no wall-clock default) so every command is reproducible
byte for byte; command-line flags override file values.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

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
    threads: int = 1


def _build(cls, doc: dict, where: str):
    allowed = set(cls.__dataclass_fields__)
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")
    return cls(**doc)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})")

    if "data" not in doc or "path" not in doc["data"]:
        raise ConfigError("config requires data.path")
    if "cv" not in doc or "seed" not in doc["cv"]:
        raise ConfigError("config requires cv.seed (reproducibility is mandatory)")

    cfg = RunConfig(
        data=_build(DataConfig, doc["data"], "data"),
        pipeline=_build(PipelineConfig, doc.get("pipeline", {}), "pipeline"),
        model=_build(ModelConfig, doc.get("model", {}), "model"),
        models=list(doc.get("models", [])),
        cv=_build(CVConfig, doc["cv"], "cv"),
        output=_build(OutputConfig, doc.get("output", {}), "output"),
        threads=int(doc.get("threads", 1)),
    )
    unknown = [name for name in cfg.models if name not in MODEL_NAMES]
    if unknown:  # before the data path, so a bad name is named first
        raise ConfigError(f"unknown models {unknown}; choose from {MODEL_NAMES}")
    if cfg.data.format not in DATA_FORMATS:
        raise ConfigError(f"data.format must be one of {DATA_FORMATS}")
    if not os.path.exists(cfg.data.path):
        raise ConfigError(f"data path does not exist: {cfg.data.path}")
    if cfg.pipeline.climate_table and not os.path.exists(cfg.pipeline.climate_table):
        raise ConfigError(f"climate table does not exist: {cfg.pipeline.climate_table}")
    if cfg.cv.folds < 2:
        raise ConfigError("cv.folds must be at least 2")
    if cfg.threads < 1:
        raise ConfigError("threads must be at least 1")
    return cfg
