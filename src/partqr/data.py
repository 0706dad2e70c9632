"""Tabular data handling: schemas, datasets, one-hot encoding, CSV I/O, k-fold splits."""

from __future__ import annotations

import csv
import math
from itertools import repeat
from operator import itemgetter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

COLUMN_KINDS = ("numeric", "categorical", "date", "identifier")
# The largest magnitude of a numeric input cell: the squares and sums of
# squares that fits take of any realistic row count stay finite below it.
MAX_MAGNITUDE = 1e150


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


class NumericColumn:
    """A numeric column: its cells as a float array and a mask of the missing
    ones, whose `data` cells hold 0.0. A NaN cell is a value, not a missing
    cell. Both arrays are read-only."""

    __slots__ = ("data", "missing")

    def __init__(self, data: np.ndarray, missing: np.ndarray):
        data.flags.writeable = missing.flags.writeable = False
        self.data, self.missing = data, missing

    @classmethod
    def of(cls, name: str, cells: Sequence) -> "NumericColumn":
        """The column of `cells`, None marking a missing one; a cell that is
        not a number raises SchemaError naming the column `name`."""
        try:
            if None not in cells:
                return cls(np.array(list(map(float, cells)), dtype=float), np.zeros(len(cells), bool))
            data = np.array([0.0 if v is None else float(v) for v in cells], dtype=float)
        except (TypeError, ValueError):
            raise SchemaError(f"non-numeric value in numeric column {name!r}") from None
        return cls(data, np.array([v is None for v in cells], dtype=bool))

    def __len__(self) -> int:
        return self.data.size

    def cells(self) -> list:
        """The cells as Python floats, None where missing."""
        cells = self.data.tolist()
        if self.missing.any():
            return [None if m else v for v, m in zip(cells, self.missing.tolist())]
        return cells

    def take(self, indices: np.ndarray) -> "NumericColumn":
        return NumericColumn(self.data[indices], self.missing[indices])

    def filled(self, value: float) -> "NumericColumn":
        """Its missing cells set to `value`."""
        if not self.missing.any():
            return self
        return NumericColumn(np.where(self.missing, float(value), self.data), np.zeros(len(self), bool))

    def key(self) -> tuple:
        # + 0.0 makes -0.0 the bytes of 0.0, as the two cells compare equal
        return self.missing.tobytes(), (self.data + 0.0).tobytes()


def _stored(kind: str, name: str, cells):
    """How a column of `kind` is held: a NumericColumn, or a tuple of cells."""
    if kind != "numeric":
        return tuple(cells)
    return cells if isinstance(cells, NumericColumn) else NumericColumn.of(name, cells)


def _take(column, indices: np.ndarray):
    if isinstance(column, NumericColumn):
        return column.take(indices)
    return tuple(map(column.__getitem__, indices.tolist()))


class Dataset:
    """Immutable table conforming to a schema, held one column per schema
    column (`columns`, in schema order): a numeric column as a
    NumericColumn, any other column as a tuple of its cells. None marks a
    missing cell.

    `Dataset(schema, rows)` transposes a batch of rows once; the package
    builds its datasets column by column (`from_columns`). `rows` is derived
    on each access, for callers that want rows; the package never reads it.
    Its length is its row count, so a prediction method takes it where it
    takes a batch of raw rows (see `encode_row`).
    """

    __slots__ = ("schema", "columns", "_hash")

    def __init__(self, schema: FeatureSchema, rows: Iterable[Sequence]):
        rows = tuple(rows)
        width = len(schema.columns)
        # the widths are checked at C level; the rows are walked only to
        # name the first bad one
        if set(map(len, rows)) - {width}:
            i, row = next((i, r) for i, r in enumerate(rows) if len(r) != width)
            raise SchemaError(f"row {i} has {len(row)} values, expected {width}")
        self._set(schema, list(zip(*rows)) if rows else [()] * width)

    @classmethod
    def from_columns(cls, schema: FeatureSchema, columns: Sequence) -> "Dataset":
        """The dataset of `columns`, one per schema column and in schema
        order: a numeric one a NumericColumn or a sequence of floats and
        None, any other a sequence of cells."""
        dataset = cls.__new__(cls)
        dataset._set(schema, columns)
        return dataset

    def _set(self, schema: FeatureSchema, columns: Sequence) -> None:
        stored = tuple(_stored(kind, name, c) for (name, kind), c in zip(schema.columns, columns))
        if len(stored) != len(schema.columns) or len(set(map(len, stored))) != 1:
            raise SchemaError("a dataset needs one column per schema column, all of one length")
        object.__setattr__(self, "schema", schema)
        object.__setattr__(self, "columns", stored)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("a Dataset is immutable")

    @property
    def n_rows(self) -> int:
        return len(self.columns[0])

    def __len__(self) -> int:
        return self.n_rows

    @property
    def rows(self) -> tuple[tuple, ...]:
        return tuple(zip(*map(_cells, self.columns)))

    def stored(self, name: str):
        """Column `name` as it is held: a NumericColumn or a tuple."""
        return self.columns[self.schema.index_of(name)]

    def numeric(self, name: str) -> NumericColumn:
        column = self.stored(name)
        if not isinstance(column, NumericColumn):
            raise ValueError(f"column {name!r} is not numeric")
        return column

    def column(self, name: str) -> list:
        """The cells of column `name`, None where missing."""
        return list(_cells(self.stored(name)))

    def subset(self, indices: Iterable[int]) -> "Dataset":
        if not isinstance(indices, (np.ndarray, Sequence, range)):
            indices = list(indices)
        idx = np.asarray(indices, dtype=np.intp)
        return Dataset.from_columns(self.schema, [_take(c, idx) for c in self.columns])

    def project(self, schema: FeatureSchema) -> "Dataset":
        """The columns that `schema` names, in its order, under `schema`."""
        return Dataset.from_columns(schema, [self.stored(name) for name, _ in schema.columns])

    def _key(self) -> tuple:
        return self.schema, tuple(
            c.key() if isinstance(c, NumericColumn) else c for c in self.columns
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(self._key()))
        return self._hash

    def __reduce__(self):
        return Dataset.from_columns, (self.schema, self.columns)

    def __repr__(self) -> str:
        return f"Dataset({self.n_rows} rows of {[name for name, _ in self.schema.columns]})"


def _cells(column) -> Sequence:
    return column.cells() if isinstance(column, NumericColumn) else column


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
        observed = set(dataset.stored(name)) - {None}
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
    values = encode_row(schema, encoding, dataset)
    target = dataset.numeric(schema.target)
    if target.missing.any():
        raise ValueError("missing values in target column")
    return EncodedMatrix(values, encoded_columns(schema, encoding)), target.data.copy(), encoding


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


def encode_row(schema: FeatureSchema, encoding: CategoricalEncoding, rows) -> np.ndarray:
    """Encode a batch of rows into an (n, width) design matrix: a Dataset of
    `schema`, read column by column, or raw rows (each ordered per schema),
    read as `Dataset(schema, rows)`. This is the one place predictors are
    one-hot encoded; `encode` builds its matrix here. An unseen level
    encodes to all zeros; a missing predictor cell or a non-numeric cell
    raises ValueError naming the column, a row of the wrong width names the
    row, and a single raw row, which is not a batch, raises ValueError.
    """
    if not isinstance(rows, Dataset):
        first = next(iter(rows), ())
        if isinstance(first, (str, bytes)) or not isinstance(first, (Sequence, np.ndarray)):
            raise ValueError(f"expected a batch of rows, got a single row or cell: {first!r}")
        rows = Dataset(schema, rows)
    column = _dataset_columns(schema, rows)
    values = np.zeros((len(rows), len(encoded_columns(schema, encoding))))
    j = 0
    for name in schema.predictors():
        cells = column(name)
        if schema.kind_of(name) == "categorical":
            levels = encoding.levels_for(name)
            level_index = {lv: idx for idx, lv in enumerate(levels)}
            codes = np.fromiter(map(level_index.get, map(str, cells), repeat(-1)), np.intp, len(cells))
            hit = np.flatnonzero(codes >= 0)
            values[hit, j + codes[hit]] = 1.0
            j += len(levels)
        else:
            values[:, j] = cells
            j += 1
    return values


def _dataset_columns(schema: FeatureSchema, dataset: Dataset):
    """What `encode_row` reads of a dataset: each predictor column with no
    missing cell, a numeric one as its float array."""
    if dataset.schema != schema:
        raise ValueError("the dataset's schema is not the one it is encoded by")

    def column(name: str):
        stored = dataset.stored(name)
        if isinstance(stored, NumericColumn):
            if stored.missing.any():
                raise ValueError(f"missing value in column {name!r}")
            return stored.data
        if None in stored:
            raise ValueError(f"missing value in column {name!r}")
        return stored

    return column


def as_encoded(schema: FeatureSchema, encoding: CategoricalEncoding, rows) -> np.ndarray:
    """A batch of rows (a Dataset or raw rows) encoded by `encode_row`, or
    the values of an EncodedMatrix already in the layout of `schema` and
    `encoding`, as they are; a matrix with other columns raises ValueError."""
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
    """An RFC 4180 CSV's header and its records that have a non-empty cell:
    records whose cells are all empty, blank lines among them, are skipped.
    This is the one CSV reader of every input file; an empty file raises
    SchemaError naming the path, and `record_lines` gives the line each
    record starts on."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, expected a header row")
        return header, list(filter(any, reader))


def record_lines(path, delimiter: str = ",") -> list[int]:
    """The line each record of `read_csv(path, delimiter)` starts on, the
    header's being line 1; a quoted cell may span lines. The file is read
    again, so only an error message should ask."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        next(reader, None)
        lines, start = [], reader.line_num + 1
        for record in reader:
            if any(record):
                lines.append(start)
            start = reader.line_num + 1
    return lines


def csv_columns(header: list[str], records: list[list[str]], names) -> dict[str, list[str]]:
    """The cells of each of `names` in `records`: a short record reads as
    empty trailing cells, and a name the header lacks as all empty cells."""
    width = len(header)
    if min(map(len, records), default=width) < width:
        records = [r + [""] * (width - len(r)) for r in records]
    return {
        name: list(map(itemgetter(header.index(name)), records)) if name in header else [""] * len(records)
        for name in names
    }


def parse_floats(cells: list[str]) -> NumericColumn | None:
    """A column of CSV cells as numbers, an empty cell missing; None if a
    non-empty cell does not parse as a float."""
    try:
        if "" not in cells:
            return NumericColumn(np.array(list(map(float, cells)), dtype=float), np.zeros(len(cells), bool))
        return NumericColumn(
            np.array([float(c) if c else 0.0 for c in cells], dtype=float),
            np.array([not c for c in cells], dtype=bool),
        )
    except ValueError:
        return None


def check_finite(path, delimiter: str, cells: dict[str, list[str]], parsed: dict) -> None:
    """Raise SchemaError unless every non-empty cell of each column `name`
    of `parsed` is a finite number of magnitude at most `MAX_MAGNITUDE`;
    `parsed[name]` is `parse_floats` of `cells[name]` or of its leading
    cells. The error names the path, the line the bad cell's record starts
    on and the column; of several bad cells, the first in row-major order:
    lowest line, then leftmost column of `parsed`."""
    bad = [
        next((i, j, name, fault) for i, c in enumerate(cells[name]) if c and (fault := _cell_fault(c)))
        for j, (name, column) in enumerate(parsed.items())
        if column is None or not (np.abs(column.data) <= MAX_MAGNITUDE).all()
    ]
    if bad:
        i, _, name, fault = min(bad)
        raise SchemaError(f"{path}:{record_lines(path, delimiter)[i]}: column {name!r}: {fault}")


def dataset_from_csv(
    path,
    target: str,
    delimiter: str = ",",
    schema: FeatureSchema | None = None,
    overrides: dict[str, str] | None = None,
    weight_units: str = "days",
) -> Dataset:
    """Load a CSV into a Dataset, column by column; empty cells become
    missing (None), and rows whose cells are all empty are skipped.

    A numeric cell that is not a finite number (`nan`, `inf`, text) or
    whose magnitude passes `MAX_MAGNITUDE` raises SchemaError naming the
    path, the line and the column.

    With a schema (a prediction input), every schema column but the target
    must be present; an absent target column reads as empty cells. Without
    one, a column is numeric when every non-empty cell parses as a float,
    so a `nan` cell still makes it numeric and then fails; otherwise it is
    categorical. `overrides` names kinds that win over the inferred ones.
    """
    header, records = read_csv(path, delimiter=delimiter)
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
    cells = csv_columns(header, records, [name for name, _ in columns])
    # one column at a time: its floats, if every non-empty cell parses
    parsed = {name: parse_floats(cells[name]) for name, kind in columns if kind in (None, "numeric")}
    if schema is None:  # built, and its errors raised, before any cell's
        inferred = {name: "categorical" if parsed.get(name) is None else "numeric" for name in header}
        kinds = [inferred[name] if kind is None else kind for name, kind in columns]
        schema = FeatureSchema(tuple(zip(header, kinds)), target=target, weight_units=weight_units)
    numeric = {name: parsed[name] for name, kind in schema.columns if kind == "numeric"}
    check_finite(path, delimiter, cells, numeric)
    return Dataset.from_columns(schema, [
        numeric[name] if kind == "numeric" else [c or None for c in cells[name]]
        for name, kind in schema.columns
    ])


def _cell_fault(text: str) -> str | None:
    """What is wrong with a numeric cell, or None if it is a finite number
    of magnitude at most `MAX_MAGNITUDE`."""
    try:
        value = float(text)
    except ValueError:
        return f"{text!r} is not a number"
    if not math.isfinite(value):
        return f"non-finite value {text!r}"
    if abs(value) > MAX_MAGNITUDE:
        return f"value {text!r} is out of range (|value| > {MAX_MAGNITUDE:g})"
    return None
