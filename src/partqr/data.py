"""Tabular data handling: schemas, datasets, one-hot encoding, CSV I/O, k-fold splits."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

COLUMN_KINDS = ("numeric", "categorical", "date", "identifier")


class SchemaError(ValueError):
    """A schema or dataset violates its structural contract."""


@dataclass(frozen=True)
class FeatureSchema:
    """Column names/kinds plus the numeric prediction target.

    Predictors are the numeric and categorical columns other than the target.
    Date and identifier columns are carried through for reporting but never
    encoded; the pipeline module derives explicit features from dates instead.
    """

    columns: tuple[tuple[str, str], ...]
    target: str
    weight_units: str = "days"

    def __post_init__(self):
        names = [name for name, _ in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names")
        for name, kind in self.columns:
            if kind not in COLUMN_KINDS:
                raise SchemaError(f"unknown column kind {kind!r} for column {name!r}")
        kinds = dict(self.columns)
        if self.target not in kinds:
            raise SchemaError(f"target column {self.target!r} not in schema")
        if kinds[self.target] != "numeric":
            raise SchemaError(f"target column {self.target!r} must be numeric")
        if not self.predictors():
            raise SchemaError("no predictor columns besides target/identifiers")

    def kind_of(self, name: str) -> str:
        for col, kind in self.columns:
            if col == name:
                return kind
        raise KeyError(name)

    def index_of(self, name: str) -> int:
        for i, (col, _) in enumerate(self.columns):
            if col == name:
                return i
        raise KeyError(name)

    def predictors(self) -> list[str]:
        return [
            name
            for name, kind in self.columns
            if kind in ("numeric", "categorical") and name != self.target
        ]

    def categorical_predictors(self) -> list[str]:
        return [n for n in self.predictors() if self.kind_of(n) == "categorical"]

    def numeric_predictors(self) -> list[str]:
        return [n for n in self.predictors() if self.kind_of(n) == "numeric"]


@dataclass(frozen=True)
class Dataset:
    """Immutable rows conforming to a schema; None marks a missing value."""

    schema: FeatureSchema
    rows: tuple[tuple, ...]

    def __post_init__(self):
        width = len(self.schema.columns)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise SchemaError(f"row {i} has {len(row)} values, expected {width}")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> list:
        j = self.schema.index_of(name)
        return [row[j] for row in self.rows]

    def subset(self, indices: Iterable[int]) -> "Dataset":
        return Dataset(self.schema, tuple(self.rows[i] for i in indices))


@dataclass(frozen=True)
class CategoricalEncoding:
    """Observed level list per categorical predictor, lexicographically ordered.

    A known level encodes to a unit indicator; an unknown level encodes to the
    all-zeros vector, so prediction never fails on new sites.
    """

    levels: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def width(self) -> int:
        return sum(len(lv) for _, lv in self.levels)

    def levels_for(self, column: str) -> tuple[str, ...]:
        for col, lv in self.levels:
            if col == column:
                return lv
        raise KeyError(column)


@dataclass(frozen=True)
class EncodedColumn:
    source: str
    level: str | None
    from_categorical: bool


@dataclass(frozen=True)
class EncodedMatrix:
    """Dense design matrix with a map back to the source schema columns."""

    values: np.ndarray
    columns: tuple[EncodedColumn, ...]

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def categorical_mask(self) -> np.ndarray:
        return np.array([c.from_categorical for c in self.columns], dtype=bool)

    def categorical_submatrix(self) -> np.ndarray:
        return self.values[:, self.categorical_mask]

    def subset(self, indices) -> "EncodedMatrix":
        return EncodedMatrix(self.values[np.asarray(indices, dtype=int)], self.columns)


def fit_encoding(dataset: Dataset) -> CategoricalEncoding:
    """Learn per-column level lists from observed data (lexicographic order)."""
    levels = []
    for name in dataset.schema.categorical_predictors():
        observed = {v for v in dataset.column(name) if v is not None}
        levels.append((name, tuple(sorted(str(v) for v in observed))))
    return CategoricalEncoding(tuple(levels))


def _encoded_columns(schema: FeatureSchema, encoding: CategoricalEncoding):
    cols = []
    for name in schema.predictors():
        if schema.kind_of(name) == "categorical":
            for level in encoding.levels_for(name):
                cols.append(EncodedColumn(name, level, True))
        else:
            cols.append(EncodedColumn(name, None, False))
    return tuple(cols)


def encode(
    dataset: Dataset, encoding: CategoricalEncoding | None = None
) -> tuple[EncodedMatrix, np.ndarray, CategoricalEncoding]:
    """One-hot encode categorical predictors and pass numeric ones through.

    Without an encoding this fits level lists from the data; with one it
    reuses the supplied levels (unknown levels map to all-zeros). Returns the
    design matrix, the target vector, and the encoding used.
    """
    if dataset.n_rows == 0:
        raise ValueError("cannot encode an empty dataset")
    if encoding is None:
        encoding = fit_encoding(dataset)
    schema = dataset.schema
    n = dataset.n_rows
    columns = _encoded_columns(schema, encoding)
    values = np.zeros((n, len(columns)), dtype=float)

    j = 0
    for name in schema.predictors():
        raw = dataset.column(name)
        if any(v is None for v in raw):
            raise ValueError(f"missing values in column {name!r}; impute first")
        if schema.kind_of(name) == "categorical":
            level_index = {lv: idx for idx, lv in enumerate(encoding.levels_for(name))}
            width = len(level_index)
            for i, v in enumerate(raw):
                idx = level_index.get(str(v))
                if idx is not None:
                    values[i, j + idx] = 1.0
            j += width
        else:
            try:
                values[:, j] = np.array([float(v) for v in raw])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"non-numeric value in numeric column {name!r}") from exc
            j += 1

    target_raw = dataset.column(schema.target)
    if any(v is None for v in target_raw):
        raise ValueError("missing values in target column")
    try:
        y = np.array([float(v) for v in target_raw])
    except (TypeError, ValueError) as exc:
        raise ValueError("target column is not numeric") from exc
    return EncodedMatrix(values, columns), y, encoding


def encode_row(schema: FeatureSchema, encoding: CategoricalEncoding, row: Sequence) -> np.ndarray:
    """Encode one raw row (ordered per schema) into the design-matrix layout."""
    if len(row) != len(schema.columns):
        raise SchemaError(f"row has {len(row)} values, expected {len(schema.columns)}")
    out = []
    for name in schema.predictors():
        v = row[schema.index_of(name)]
        if v is None:
            raise ValueError(f"missing value in column {name!r}")
        if schema.kind_of(name) == "categorical":
            lv = encoding.levels_for(name)
            vec = np.zeros(len(lv))
            s = str(v)
            for idx, level in enumerate(lv):
                if level == s:
                    vec[idx] = 1.0
                    break
            out.append(vec)
        else:
            out.append(np.array([float(v)]))
    return np.concatenate(out) if out else np.zeros(0)


def split_kfold(dataset: Dataset, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic k-fold split: disjoint test folds whose sizes differ by <= 1."""
    n = dataset.n_rows
    if k < 2:
        raise ValueError("k must be at least 2")
    if k > n:
        raise ValueError(f"k={k} exceeds row count {n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        test = np.sort(perm[start : start + size])
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((np.flatnonzero(mask), test))
        start += size
    return folds


def read_csv(path, delimiter: str = ",") -> tuple[list[str], list[list[str]]]:
    """Read an RFC 4180 CSV; first row is the header."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected a header row")
        rows = [row for row in reader]
    return header, rows


def infer_schema(
    header: list[str],
    rows: list[list[str]],
    target: str,
    overrides: dict[str, str] | None = None,
    weight_units: str = "days",
) -> FeatureSchema:
    """Infer column kinds: numeric if every non-empty value parses as a decimal."""
    overrides = overrides or {}
    columns = []
    for j, name in enumerate(header):
        if name in overrides:
            columns.append((name, overrides[name]))
            continue
        numeric = True
        for row in rows:
            v = row[j] if j < len(row) else ""
            if v == "":
                continue
            try:
                float(v)
            except ValueError:
                numeric = False
                break
        columns.append((name, "numeric" if numeric else "categorical"))
    return FeatureSchema(tuple(columns), target=target, weight_units=weight_units)


def dataset_from_csv(
    path,
    target: str,
    delimiter: str = ",",
    schema: FeatureSchema | None = None,
    overrides: dict[str, str] | None = None,
    weight_units: str = "days",
) -> Dataset:
    """Load a CSV into a Dataset; empty cells become missing (None).

    A numeric cell that is not a finite number (`nan`, `inf`, text) raises
    SchemaError naming the path, the line and the column.

    With a schema (a prediction input), every schema column but the target
    must be present; an absent target column reads as empty cells.
    """
    header, raw_rows = read_csv(path, delimiter=delimiter)
    if schema is None:
        schema = infer_schema(header, raw_rows, target, overrides, weight_units)
    else:
        missing = [
            name for name, _ in schema.columns if name not in header and name != schema.target
        ]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
    positions = [header.index(name) if name in header else None for name, _ in schema.columns]
    rows = []
    for line, raw in enumerate(raw_rows, start=2):  # the header is line 1
        vals = []
        for pos, (name, kind) in zip(positions, schema.columns):
            v = raw[pos] if pos is not None and pos < len(raw) else ""
            if v == "":
                vals.append(None)
            elif kind == "numeric":
                vals.append(_finite_cell(v, f"{path}:{line}: column {name!r}"))
            else:
                vals.append(v)
        rows.append(tuple(vals))
    return Dataset(schema, tuple(rows))


def _finite_cell(text: str, where: str) -> float:
    """A numeric cell as a float; `nan`, `inf` and non-numbers raise SchemaError."""
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{where}: non-finite value {text!r}")
    return value
