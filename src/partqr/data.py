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
        # the widths are checked at C level; the rows are walked only to
        # name the first bad one
        if set(map(len, self.rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(self.rows) if len(r) != width)
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
    """Dense design matrix with a map back to the source schema columns.

    Its length is its row count, so a prediction method takes it where it
    takes a batch of raw rows (see `as_encoded`).
    """

    values: np.ndarray
    columns: tuple[EncodedColumn, ...]

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def categorical_mask(self) -> np.ndarray:
        return categorical_mask(self.columns)

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


def categorical_mask(columns: Sequence[EncodedColumn]) -> np.ndarray:
    """Which of the encoded `columns` are one-hot indicators."""
    return np.array([c.from_categorical for c in columns], dtype=bool)


def design_arrays(X) -> tuple[np.ndarray, np.ndarray]:
    """(values, indicator mask) of an EncodedMatrix, or of a plain array, all numeric."""
    if isinstance(X, EncodedMatrix):
        return X.values, X.categorical_mask
    values = np.atleast_2d(np.asarray(X, dtype=float))
    return values, np.zeros(values.shape[1], dtype=bool)


def encoded_columns(schema: FeatureSchema, encoding: CategoricalEncoding):
    """The one encoded layout: each predictor in schema order, a numeric one
    as a column and a categorical one as an indicator per level of `encoding`."""
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
    values = encode_row(schema, encoding, dataset.rows)
    columns = encoded_columns(schema, encoding)

    target_raw = dataset.column(schema.target)
    if any(v is None for v in target_raw):
        raise ValueError("missing values in target column")
    try:
        y = np.array([float(v) for v in target_raw])
    except (TypeError, ValueError) as exc:
        raise ValueError("target column is not numeric") from exc
    return EncodedMatrix(values, columns), y, encoding


def shared(cache: dict, key, make):
    """`make()`, made once per `key` of a fit cache and shared by later calls;
    the value lives as long as the cache."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


def encode_once(
    dataset: Dataset, cache: dict
) -> tuple[EncodedMatrix, np.ndarray, CategoricalEncoding]:
    """`encode(dataset)`, made once per cache (see `shared`). A fit cache
    serves one training set, the first dataset it sees; another raises
    RuntimeError."""
    if cache.setdefault("dataset", dataset) is not dataset:
        raise RuntimeError("a fit cache serves one training set, and this is another")
    return shared(cache, "encoded", lambda: encode(dataset))


def encode_row(schema: FeatureSchema, encoding: CategoricalEncoding, rows: Sequence) -> np.ndarray:
    """Encode a batch of raw rows (each ordered per schema) into an (n, width)
    design matrix. This is the one place predictors are one-hot encoded;
    `encode` builds its matrix here. An unseen level encodes to all zeros; a
    missing or non-numeric cell raises ValueError naming the column.
    """
    expected = len(schema.columns)
    for row in rows:
        if len(row) != expected:
            raise SchemaError(f"row has {len(row)} values, expected {expected}")
    values = np.zeros((len(rows), len(encoded_columns(schema, encoding))))
    j = 0
    for name in schema.predictors():
        pos = schema.index_of(name)
        raw = [row[pos] for row in rows]
        if any(v is None for v in raw):
            raise ValueError(f"missing value in column {name!r}")
        if schema.kind_of(name) == "categorical":
            levels = encoding.levels_for(name)
            level_index = {lv: idx for idx, lv in enumerate(levels)}
            codes = np.array([level_index.get(str(v), -1) for v in raw], dtype=np.intp)
            hit = np.flatnonzero(codes >= 0)
            values[hit, j + codes[hit]] = 1.0
            j += len(levels)
        else:
            try:
                values[:, j] = [float(v) for v in raw]
            except (TypeError, ValueError) as exc:
                raise ValueError(f"non-numeric value in numeric column {name!r}") from exc
            j += 1
    return values


def as_encoded(schema: FeatureSchema, encoding: CategoricalEncoding, rows) -> np.ndarray:
    """A batch of raw rows encoded by `encode_row`, or the values of an
    EncodedMatrix already in the layout of `schema` and `encoding`, as they
    are; a matrix with other columns raises ValueError."""
    if not isinstance(rows, EncodedMatrix):
        return encode_row(schema, encoding, rows)
    if rows.columns != encoded_columns(schema, encoding):
        raise ValueError("encoded columns do not match the model's")
    return rows.values


def encoded_batch(X) -> np.ndarray:
    """A batch of encoded rows as a C-contiguous (n, width) float array; one
    1-D row raises ValueError, as every prediction function takes a batch.

    C order keeps every row contiguous, which the bit-identity of
    `np.vecdot` with a one-row dot product relies on.
    """
    X = np.ascontiguousarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D batch of encoded rows, got a {X.ndim}-D array")
    return X


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


def nonempty_rows(path, delimiter: str = ",") -> tuple[list[str], list[int], list[list[str]]]:
    """A CSV's header, then the line and cells of each row that has a
    non-empty cell: rows whose cells are all empty are skipped. The header is
    line 1. These are the rows, and lines, of `dataset_from_csv`."""
    header, raw_rows = read_csv(path, delimiter=delimiter)
    lines, raws = [], []
    for line, raw in enumerate(raw_rows, start=2):
        if any(raw):
            lines.append(line)
            raws.append(raw)
    return header, lines, raws


def dataset_from_csv(
    path,
    target: str,
    delimiter: str = ",",
    schema: FeatureSchema | None = None,
    overrides: dict[str, str] | None = None,
    weight_units: str = "days",
) -> Dataset:
    """Load a CSV into a Dataset; empty cells become missing (None), and rows
    whose cells are all empty are skipped.

    A numeric cell that is not a finite number (`nan`, `inf`, text) raises
    SchemaError naming the path, the line and the column.

    With a schema (a prediction input), every schema column but the target
    must be present; an absent target column reads as empty cells. Without
    one, a column is numeric when every non-empty cell parses as a float,
    so a `nan` cell still makes it numeric and then fails; otherwise it is
    categorical. `overrides` names kinds that win over the inferred ones.
    """
    header, lines, raws = nonempty_rows(path, delimiter=delimiter)
    if schema is None:
        overrides = overrides or {}
        columns = [(name, overrides.get(name)) for name in header]  # None: infer
    else:
        missing = [
            name for name, _ in schema.columns if name not in header and name != schema.target
        ]
        if missing:
            raise SchemaError(f"{path}: missing columns {missing}")
        columns = schema.columns

    def cells_of(name: str) -> list[str]:
        if name not in header:  # an absent target column
            return [""] * len(raws)
        pos = header.index(name)
        return [raw[pos] if pos < len(raw) else "" for raw in raws]

    # one column at a time: its floats, if every non-empty cell parses
    floats = {}
    for name, kind in columns:
        if kind in (None, "numeric"):
            try:
                floats[name] = [float(c) if c else None for c in cells_of(name)]
            except ValueError:
                pass
    if schema is None:  # built, and its errors raised, before any cell's
        inferred = {name: "numeric" if name in floats else "categorical" for name in header}
        kinds = [inferred[name] if kind is None else kind for name, kind in columns]
        schema = FeatureSchema(tuple(zip(header, kinds)), target=target, weight_units=weight_units)
    # back to rows; of several bad cells, the error names the first in
    # row-major order: lowest line, then leftmost column
    values, bad = [], []
    for j, (name, kind) in enumerate(schema.columns):
        if kind != "numeric":
            values.append([c or None for c in cells_of(name)])
            continue
        column = floats.get(name)
        if column is not None and np.isfinite([v for v in column if v is not None]).all():
            values.append(column)
            continue
        for i, c in enumerate(cells_of(name)):
            if c:
                try:
                    _finite_cell(c, path, lines[i], name)
                except SchemaError as exc:
                    bad.append((i, j, exc))
                    break
    if bad:
        raise min(bad)[2]
    return Dataset(schema, tuple(zip(*values)))


def _finite_cell(text: str, path, line: int, column: str) -> float:
    """A numeric cell as a float; `nan`, `inf` and non-numbers raise SchemaError."""
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(f"{path}:{line}: column {column!r}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise SchemaError(f"{path}:{line}: column {column!r}: non-finite value {text!r}")
    return value
