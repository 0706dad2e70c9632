"""The column layout of `Dataset`: it holds what its rows hold, every
column operation equals its row form bit for bit, `partqr predict` equals
the model's own forecasts of the filled raw rows, and no package path reads
`Dataset.rows`."""

import contextlib
import datetime
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partqr.cli import _apply_selection, main, write_dataset_csv
from partqr.composite import fit_composite, predict_quantile
from partqr.data import Dataset, FeatureSchema, SchemaError, encode, encode_row, fit_encoding
from partqr.evaluation import grid_search
from partqr.models import MODEL_NAMES, fit_model
from partqr.pipeline import fill_values, fit_imputer, prune_tail
from partqr.serialize import load_model, save_model
from partqr.synthetic import SyntheticSpec, generate_synthetic

COLUMNS = (
    ("id", "identifier"),
    ("when", "date"),
    ("city", "categorical"),
    ("x", "numeric"),
    ("z", "numeric"),
    ("y", "numeric"),
)
SCHEMA = FeatureSchema(COLUMNS, target="y")

_text = st.one_of(st.none(), st.sampled_from(["a", "b", "c", "a,b", "01"]))
_dates = st.one_of(st.none(), st.dates(datetime.date(2000, 1, 1), datetime.date(2030, 1, 1)))
_numbers = st.one_of(st.none(), st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=False))
_row = st.tuples(_text, _dates, _text, _numbers, _numbers, _numbers)
_rows = st.lists(_row, max_size=25)
# imputation keeps at least one predictor column, and one row to encode
_imputable = _rows.filter(
    lambda rows: any(row[3] is not None for row in rows) and any(row[-1] is not None for row in rows)
)


def bits(rows) -> list:
    """`rows` with each float as its bytes, so that equal means bit for bit."""
    return [
        tuple(struct.pack("<d", v) if isinstance(v, float) else (type(v), v) for v in row)
        for row in rows
    ]


@settings(max_examples=60, deadline=None)
@given(_rows)
def test_rows_round_trip_with_types_and_none(rows):
    ds = Dataset(SCHEMA, rows)
    assert ds.rows == tuple(rows)
    assert bits(ds.rows) == bits(rows)
    assert len(ds) == ds.n_rows == len(rows)
    assert bits(Dataset(SCHEMA, rows).rows) == bits(ds.rows)


def test_nan_cell_is_a_value_and_float_cells_come_back_as_python_floats():
    ds = Dataset(FeatureSchema((("x", "numeric"), ("y", "numeric")), target="y"),
                 [(math.nan, None), (np.float64(2.5), 1.0)])
    (nan, missing), (x, y) = ds.rows
    assert math.isnan(nan) and missing is None
    assert type(x) is float and (x, y) == (2.5, 1.0)
    assert ds.numeric("x").missing.tolist() == [False, False]


@settings(max_examples=60, deadline=None)
@given(_rows, st.lists(st.integers(0, 24), max_size=30))
def test_subset_equals_row_form(rows, picks):
    indices = [i for i in picks if i < len(rows)]
    ds = Dataset(SCHEMA, rows)
    assert bits(ds.subset(indices).rows) == bits(rows[i] for i in indices)


@settings(max_examples=60, deadline=None)
@given(_rows, st.floats(-1e6, 1e6, allow_nan=False).filter(lambda c: c > 0))
def test_prune_tail_equals_row_form(rows, cap):
    j = SCHEMA.index_of("x")
    want = [row for row in rows if row[j] is None or float(row[j]) <= cap]
    with pytest.warns(UserWarning) if not want else contextlib.nullcontext():
        got, removed = prune_tail(Dataset(SCHEMA, rows), "x", cap)
    assert bits(got.rows) == bits(want)
    assert removed == len(rows) - len(want)


def _imputed_rows(rows) -> tuple[list, dict, tuple]:
    """What fold-local imputation makes of `rows`, in the row form: rows of
    a missing target dropped, all-missing predictor columns dropped, empty
    numeric cells set to the column's median and empty categorical cells
    (and any other non-numeric cell) to "missing"."""
    target_j = SCHEMA.index_of("y")
    dropped, fill = [], {}
    for j, (name, kind) in enumerate(COLUMNS):
        present = [row[j] for row in rows if row[j] is not None]
        if name == "y":
            continue
        if not present:
            dropped.append(name)
        elif kind == "numeric":
            fill[name] = float(np.median([float(v) for v in present]))
    keep = [j for j, (name, _) in enumerate(COLUMNS) if name not in dropped]
    schema = FeatureSchema(tuple(COLUMNS[j] for j in keep), target="y")
    defaults = [fill_values(schema, fill).get(name) for name, _ in schema.columns]
    out = []
    for row in rows:
        if row[target_j] is None:
            continue
        cells = [row[j] for j in keep]
        out.append(tuple(d if v is None else v for v, d in zip(cells, defaults)))
    return out, fill, tuple(dropped)


@settings(max_examples=60, deadline=None)
@given(_imputable)
def test_imputer_transform_equals_row_form(rows):
    want, fill, dropped = _imputed_rows(rows)
    ds = Dataset(SCHEMA, rows)
    with pytest.warns(UserWarning) if dropped else contextlib.nullcontext():
        imputer = fit_imputer(ds)
    assert (imputer.numeric_fill, imputer.dropped_columns) == (fill, dropped)
    assert imputer.dropped_target_rows == sum(row[-1] is None for row in rows)
    assert bits(imputer.transform(ds).rows) == bits(want)


def _encoded_rows(schema, encoding, rows) -> np.ndarray:
    """The design matrix of `rows`, one cell at a time."""
    out = []
    for row in rows:
        cells = []
        for name in schema.predictors():
            v = row[schema.index_of(name)]
            if schema.kind_of(name) == "categorical":
                cells += [1.0 if str(v) == lv else 0.0 for lv in encoding.levels_for(name)]
            else:
                cells.append(float(v))
        out.append(cells)
    return np.array(out, dtype=float).reshape(len(rows), -1)


@settings(max_examples=60, deadline=None)
@given(_imputable)
def test_encode_equals_row_form(rows):
    want_rows, _, dropped = _imputed_rows(rows)
    with pytest.warns(UserWarning) if dropped else contextlib.nullcontext():
        ds = fit_imputer(Dataset(SCHEMA, rows)).transform(Dataset(SCHEMA, rows))
    matrix, y, encoding = encode(ds)
    assert encoding == fit_encoding(Dataset(ds.schema, want_rows))
    want = _encoded_rows(ds.schema, encoding, want_rows)
    assert matrix.values.tobytes() == want.tobytes()
    assert y.tobytes() == np.array([row[-1] for row in want_rows], dtype=float).tobytes()
    assert encode_row(ds.schema, encoding, want_rows).tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("ab"), _numbers, _numbers, st.floats(0, 100)),
             min_size=8, max_size=25),
    st.sampled_from([None, 0.0, 0.3]),
    st.sampled_from([None, 0.5, 1.0]),
)
def test_apply_selection_equals_row_form(rows, r_threshold, p_threshold):
    schema = FeatureSchema((("city", "categorical"), ("x", "numeric"), ("z", "numeric"),
                            ("y", "numeric")), target="y")
    # selection reads whole numeric columns, so they hold no empty cell here
    rows = [(c, 1.0 if x is None else x, 2.0 if z is None else z, y) for c, x, z, y in rows]
    ds = Dataset(schema, rows)
    cfg = SimpleNamespace(pipeline=SimpleNamespace(
        numeric_r_threshold=r_threshold, categorical_p_threshold=p_threshold))
    try:
        got = _apply_selection(ds, cfg)
    except SchemaError:  # no predictor selected: there is no dataset to compare
        return
    idx = [schema.index_of(name) for name, _ in got.schema.columns]
    assert bits(got.rows) == bits(tuple(row[i] for i in idx) for row in rows)


SMALL_PARAMS = {
    "ridge": {"lam": 0.1},
    "quantile": {"lam": 0.1},
    "decision_tree": {"max_depth": 2, "min_samples_split": 10},
    "random_forest": {"max_depth": 2, "min_samples_split": 10, "n_trees": 3},
    "qrf": {"max_depth": 2, "min_samples_split": 10, "n_trees": 3},
    "gradient_boosting": {"n_stages": 3, "learning_rate": 0.1, "max_depth": 2},
    "quantile_tree": {"lam": 0.1, "max_depth": 1, "min_samples_split": 10},
    "piecewise_qr": {"lam": 0.1, "n_clusters": 2},
    "piecewise_rr": {"lam": 0.1, "n_clusters": 2},
    "nn_qr": {"lam": 0.1, "n_neighbors": 15},
}
FILL = {"step1_days": 12.5, "step3_days": 31.25, "site_category": "metro"}


@pytest.fixture(scope="module")
def predict_input(tmp_path_factory):
    """A prediction CSV with empty cells to fill and all-empty lines to
    skip, and the raw rows it should be read as, filled."""
    held_out = generate_synthetic(SyntheticSpec(n_projects=30, seed=5))
    names = [name for name, _ in held_out.schema.columns]
    lines, want = [",".join(names)], []
    for i, row in enumerate(held_out.rows):
        row = list(row)
        if i % 4 == 1:
            row[names.index("step1_days")] = None
        if i % 5 == 2:
            row[names.index("site_category")] = None
            row[names.index("step3_days")] = None
        if i % 3 == 0:
            row[names.index("target_days")] = None
        lines.append(",".join("" if v is None else (repr(v) if isinstance(v, float) else v) for v in row))
        if i % 7 == 3:
            lines.append(",,,,,")
        want.append(tuple(FILL[n] if v is None and n in FILL else v for n, v in zip(names, row)))
    path = tmp_path_factory.mktemp("columnar") / "in.csv"
    path.write_text("\n".join(lines) + "\n\n", encoding="utf-8")
    return path, want


def _predict_bytes(fitted, rows) -> bytes:
    """The prediction CSV of `fitted` on raw rows, as the row form wrote it."""
    intervals = fitted.predict_intervals(rows)
    if intervals is None:
        point = fitted.predict_point(rows)
        intervals = np.column_stack([point, point, point])
    text = "lower,median,upper\n" + "".join("%r,%r,%r\n" % tuple(r) for r in intervals.tolist())
    return text.encode("utf-8")


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_predict_writes_the_forecasts_of_the_filled_raw_rows(tmp_path, predict_input, name):
    path, rows = predict_input
    train = generate_synthetic(SyntheticSpec(n_projects=60, seed=3, contamination=0.05))
    fit = fit_model(name, train, SMALL_PARAMS[name], seed=4)
    fit.fill = dict(FILL)
    model, out = tmp_path / "model.json", tmp_path / "out.csv"
    save_model(model, fit)
    assert main(["predict", "--model", str(model), "--input", str(path), "--output", str(out)]) == 0
    assert out.read_bytes() == _predict_bytes(load_model(model), rows)


def test_no_package_path_reads_rows(tmp_path, monkeypatch):
    """`partqr predict` and a grid search with tail caps and imputation run
    with `Dataset.rows` made to raise."""
    ds = generate_synthetic(SyntheticSpec(n_projects=80, seed=7, contamination=0.05))
    inp, model, out = tmp_path / "in.csv", tmp_path / "model.json", tmp_path / "out.csv"
    write_dataset_csv(ds, inp)
    text = inp.read_text(encoding="utf-8").splitlines()
    text[3] = ",".join(cell if j != 1 else "" for j, cell in enumerate(text[3].split(",")))
    inp.write_text("\n".join(text) + "\n", encoding="utf-8")

    def raises(self):
        raise AssertionError("Dataset.rows was read")

    monkeypatch.setattr(Dataset, "rows", property(raises))
    with_gaps = Dataset.from_columns(
        ds.schema, [ds.column(n)[:3] + [None] + ds.column(n)[4:] if n == "step2_days" else ds.stored(n)
                    for n, _ in ds.schema.columns])
    grid = {"lam": [0.1], "max_depth": [1, 2], "min_samples_split": [10]}
    result = grid_search("quantile_tree", grid, with_gaps, 3, seed=1, caps={"target_days": 150.0})
    save_model(model, result.final_model)
    assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == ds.n_rows + 1


class TestSingleRawRow:
    """A single raw row is not a batch: raw-row APIs say so, once per call."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_synthetic(SyntheticSpec(n_projects=40, seed=2))

    def test_encode_row(self, data):
        encoding = fit_encoding(data)
        with pytest.raises(ValueError, match="expected a batch of rows"):
            encode_row(data.schema, encoding, data.rows[0])

    def test_encode_row_numeric_first_cell(self):
        schema = FeatureSchema((("x", "numeric"), ("z", "numeric"), ("y", "numeric")), target="y")
        ds = Dataset(schema, [(1.0, 2.0, 3.0), (2.0, 1.0, 0.0)])
        with pytest.raises(ValueError, match="expected a batch of rows"):
            encode_row(schema, fit_encoding(ds), (1.0, 2.0, 3.0))

    def test_predict_quantile(self, data):
        model = fit_composite("quantile_tree", data, {"max_depth": 1, "lam": 0.1})
        with pytest.raises(ValueError, match="expected a batch of rows"):
            predict_quantile(model, data.rows[0], 0.5)
        assert predict_quantile(model, data.rows[:1], 0.5).shape == (1,)

    @pytest.mark.parametrize("name", ["decision_tree", "quantile"])
    def test_predict_point(self, data, name):
        fit = fit_model(name, data, SMALL_PARAMS[name])
        with pytest.raises(ValueError, match="expected a batch of rows"):
            fit.predict_point(data.rows[0])
        assert fit.predict_point(data.rows[:2]).shape == (2,)


class TestRawRowBatch:
    """`encode_row` reads a batch of raw rows as the Dataset of those rows."""

    ROWS = [("p1", None, "a", 1.5, 2.0, None), ("p2", None, "b", -3.0, 0.25, 7.0)]

    def test_equals_the_rows_dataset_bit_for_bit(self):
        ds = Dataset(SCHEMA, self.ROWS)
        encoding = fit_encoding(ds)
        assert encode_row(SCHEMA, encoding, self.ROWS).tobytes() == encode_row(SCHEMA, encoding, ds).tobytes()

    def test_a_width_fault_names_its_row(self):
        encoding = fit_encoding(Dataset(SCHEMA, self.ROWS))
        with pytest.raises(SchemaError, match="row 1 has 5 values, expected 6"):
            encode_row(SCHEMA, encoding, [self.ROWS[0], self.ROWS[1][:5]])

    def test_a_non_numeric_target_cell_fails_as_in_a_csv(self):
        encoding = fit_encoding(Dataset(SCHEMA, self.ROWS))
        with pytest.raises(SchemaError, match="non-numeric value in numeric column 'y'"):
            encode_row(SCHEMA, encoding, [self.ROWS[0][:5] + ("late",)])
