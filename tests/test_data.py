import csv
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partqr.data import (
    Dataset,
    FeatureSchema,
    SchemaError,
    dataset_from_csv,
    encode,
    encode_once,
    encode_row,
    fit_encoding,
    read_csv,
    record_lines,
    shared,
    split_kfold,
)

from oracles import csv_cells_oracle, csv_kinds_oracle


def make_dataset(rows, columns=(("cat", "categorical"), ("y", "numeric")), target="y"):
    schema = FeatureSchema(tuple(columns), target=target)
    return Dataset(schema, tuple(rows))


class TestSchema:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSchema((("a", "numeric"), ("a", "numeric")), target="a")

    def test_target_must_be_numeric(self):
        with pytest.raises(SchemaError):
            FeatureSchema((("a", "categorical"), ("b", "numeric")), target="a")

    def test_target_must_exist(self):
        with pytest.raises(SchemaError):
            FeatureSchema((("a", "numeric"),), target="zzz")

    def test_needs_a_predictor(self):
        with pytest.raises(SchemaError):
            FeatureSchema((("id", "identifier"), ("y", "numeric")), target="y")

    def test_predictors_exclude_dates_and_identifiers(self):
        schema = FeatureSchema(
            (
                ("id", "identifier"),
                ("when", "date"),
                ("city", "categorical"),
                ("x", "numeric"),
                ("y", "numeric"),
            ),
            target="y",
        )
        assert schema.predictors() == ["city", "x"]

    @pytest.mark.parametrize(
        "bad,width,message",
        [(0, 1, "row 0 has 1 values, expected 2"), (3, 3, "row 3 has 3 values, expected 2")],
    )
    def test_row_width_error_names_first_bad_row(self, bad, width, message):
        rows = [("a", 1.0)] * 6
        rows[bad] = ("a", 1.0, 2.0)[:width]
        rows[5] = ("a",)  # a later bad row is not the one named
        with pytest.raises(SchemaError, match=f"^{message}$"):
            make_dataset(rows)
        assert make_dataset([("a", 1.0)] * 6).subset([5, 0]).n_rows == 2


class TestEncode:
    def test_unit_indicators(self):
        ds = make_dataset([("A", 1.0), ("B", 2.0), ("A", 3.0)])
        matrix, y, enc = encode(ds)
        assert matrix.values.tolist() == [[1, 0], [0, 1], [1, 0]]
        assert y.tolist() == [1.0, 2.0, 3.0]
        assert enc.levels == (("cat", ("A", "B")),)

    def test_unknown_level_is_all_zeros(self):
        train = make_dataset([("A", 1.0), ("B", 2.0)])
        _, _, enc = encode(train)
        test = make_dataset([("C", 9.0)])
        matrix, _, _ = encode(test, enc)
        assert matrix.values.tolist() == [[0, 0]]

    def test_mixed_columns_and_round_trip(self):
        # 1 categorical with 3 levels + 2 numeric -> p = 5, map round-trips
        columns = (
            ("cat", "categorical"),
            ("u", "numeric"),
            ("v", "numeric"),
            ("y", "numeric"),
        )
        rows = [("a", 1.0, 2.0, 0.0), ("b", 3.0, 4.0, 0.0), ("c", 5.0, 6.0, 0.0)]
        matrix, _, _ = encode(make_dataset(rows, columns))
        assert matrix.width == 5
        sources = {}
        for col in matrix.columns:
            sources.setdefault(col.source, []).append(col)
        assert set(sources) == {"cat", "u", "v"}
        assert len(sources["cat"]) == 3 and all(c.from_categorical for c in sources["cat"])
        assert len(sources["u"]) == 1 and not sources["u"][0].from_categorical

    def test_numeric_passthrough(self):
        columns = (("x", "numeric"), ("y", "numeric"))
        rows = [(1.5, 0.0), (-2.25, 1.0)]
        matrix, _, _ = encode(make_dataset(rows, columns))
        assert matrix.values[:, 0].tolist() == [1.5, -2.25]

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            encode(make_dataset([]))

    def test_missing_values_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            encode(make_dataset([("A", None)]))

    def test_encode_row_agrees_with_matrix(self):
        columns = (("cat", "categorical"), ("x", "numeric"), ("y", "numeric"))
        rows = [("a", 1.0, 0.0), ("b", 2.0, 0.0), ("a", 3.0, 0.0)]
        ds = make_dataset(rows, columns)
        matrix, _, enc = encode(ds)
        for i, row in enumerate(ds.rows):
            assert encode_row(ds.schema, enc, [row])[0].tolist() == matrix.values[i].tolist()

    @given(st.permutations(["A", "B", "C", "A", "B", "D"]))
    def test_levels_insensitive_to_row_order(self, order):
        ds = make_dataset([(c, 0.0) for c in order])
        assert fit_encoding(ds).levels == (("cat", ("A", "B", "C", "D")),)


class TestSharedCache:
    def test_makes_each_value_once_per_key(self):
        cache, made = {}, []

        def make(key):
            made.append(key)
            return [key]

        def call(key):
            return shared(cache, key, lambda: make(key))

        got = [call(k) for _ in range(3) for k in range(4)]
        assert made == list(range(4))
        assert all(v is got[k] for k in range(4) for v in got[k::4])
        assert cache == {k: [k] for k in range(4)}

    def test_encode_once_per_dataset_object_per_cache(self):
        cache = {}
        ds = make_dataset([("A", 1.0), ("B", 2.0), ("A", 4.0)])
        first = encode_once(ds, cache)
        assert encode_once(ds, cache) is first
        matrix, y, encoding = encode(ds)
        assert first[0].values.tobytes() == matrix.values.tobytes()
        assert first[1].tobytes() == y.tobytes() and first[2] == encoding
        fresh = encode_once(ds, {})  # another cache, encoded anew
        assert fresh is not first and fresh[0].values.tobytes() == matrix.values.tobytes()
        # a cache serves one training set: even an equal second dataset is refused
        twin = make_dataset(ds.rows)
        with pytest.raises(RuntimeError, match="one training set"):
            encode_once(twin, cache)
        assert encode_once(ds, cache) is first


class TestKFold:
    def test_five_folds_of_ten(self):
        ds = make_dataset([("A", float(i)) for i in range(10)])
        folds = split_kfold(ds, 5, seed=0)
        tests = [set(te.tolist()) for _, te in folds]
        assert all(len(t) == 2 for t in tests)
        assert set().union(*tests) == set(range(10))
        for i in range(5):
            for j in range(i + 1, 5):
                assert not tests[i] & tests[j]

    def test_same_seed_same_folds(self):
        ds = make_dataset([("A", float(i)) for i in range(23)])
        a = split_kfold(ds, 4, seed=9)
        b = split_kfold(ds, 4, seed=9)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert tr1.tolist() == tr2.tolist() and te1.tolist() == te2.tolist()

    def test_uneven_fold_sizes(self):
        ds = make_dataset([("A", float(i)) for i in range(7)])
        sizes = sorted(len(te) for _, te in split_kfold(ds, 5, seed=1))
        assert sizes == [1, 1, 1, 2, 2]

    def test_k_out_of_range(self):
        ds = make_dataset([("A", float(i)) for i in range(4)])
        with pytest.raises(ValueError):
            split_kfold(ds, 1, seed=0)
        with pytest.raises(ValueError):
            split_kfold(ds, 5, seed=0)

    @settings(max_examples=50)
    @given(n=st.integers(2, 40), k=st.integers(2, 10), seed=st.integers(0, 1000))
    def test_folds_partition_indices(self, n, k, seed):
        if k > n:
            k = n
        ds = make_dataset([("A", float(i)) for i in range(n)])
        folds = split_kfold(ds, k, seed)
        all_test = np.concatenate([te for _, te in folds])
        assert sorted(all_test.tolist()) == list(range(n))
        sizes = [len(te) for _, te in folds]
        assert max(sizes) - min(sizes) <= 1
        for tr, te in folds:
            assert sorted(np.concatenate([tr, te]).tolist()) == list(range(n))


class TestCsv:
    def test_infer_and_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('site,days,note\n"a,1",5,x\nb,7,\n', encoding="utf-8")
        ds = dataset_from_csv(path, target="days")
        assert ds.schema.kind_of("site") == "categorical"
        assert ds.schema.kind_of("days") == "numeric"
        assert ds.rows[0][0] == "a,1"  # RFC 4180 quoted comma
        assert ds.rows[1][2] is None  # empty cell is missing

    def test_overrides(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("code,days\n01,5\n02,7\n", encoding="utf-8")
        ds = dataset_from_csv(path, target="days", overrides={"code": "categorical"})
        assert ds.schema.kind_of("code") == "categorical"
        assert ds.rows[0][0] == "01"

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a;b\n1;2\n", encoding="utf-8")
        ds = dataset_from_csv(path, target="b", delimiter=";")
        assert ds.rows == ((1.0, 2.0),)

    def test_schema_without_target_column(self, tmp_path):
        columns = (("site", "categorical"), ("size", "numeric"), ("days", "numeric"))
        schema = FeatureSchema(columns, target="days")
        path = tmp_path / "in.csv"
        path.write_text("size,site\n3,a\n,b\n", encoding="utf-8")
        ds = dataset_from_csv(path, target="days", schema=schema)
        assert ds.rows == (("a", 3.0, None), ("b", None, None))
        path.write_text("site,days\na,5\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="size"):
            dataset_from_csv(path, target="days", schema=schema)

    def test_blank_rows_skipped_keeping_line_numbers(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("site,days\na,5\n\n,\nb,7\n", encoding="utf-8")
        ds = dataset_from_csv(path, target="days")
        assert ds.schema.kind_of("days") == "numeric"  # blank cells infer nothing
        assert ds.rows == (("a", 5.0), ("b", 7.0))
        path.write_text("site,days\na,5\n\nb,inf\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"d\.csv:4: column 'days'"):
            dataset_from_csv(path, target="days")

    def test_first_bad_cell_in_row_major_order(self, tmp_path):
        columns = (("a", "numeric"), ("b", "numeric"), ("c", "numeric"), ("d", "numeric"))
        schema = FeatureSchema(columns, target="d")
        path = tmp_path / "in.csv"
        # later columns fail on earlier lines: the lowest line wins, then the leftmost column
        path.write_text("c,b,a\n1,2,3\nx,2,3\n1,inf,nope\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"in\.csv:3: column 'c': 'x' is not a number"):
            dataset_from_csv(path, target="d", schema=schema)
        path.write_text("c,b,a\n1,2,3\n1,nan,x\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=r"in\.csv:3: column 'a': 'x' is not a number"):
            dataset_from_csv(path, target="d", schema=schema)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_cell_by_cell_reader(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        schema = FeatureSchema(
            (("s", "categorical"), ("a", "numeric"), ("b", "numeric"), ("y", "numeric")), target="y"
        )
        header = [str(h) for h in rng.permutation(["s", "a", "b", "y", "extra"])[: rng.integers(3, 6)]]
        if not {"s", "a", "b"} <= set(header):
            header += [h for h in ("s", "a", "b") if h not in header]
        cells = ["", "", "1.5", "-2", "1e3", "-1e150", "7", "x", "nan", "inf", "1e200"]
        weights = np.array([4, 4, 6, 6, 6, 2, 6, 1, 1, 1, 1], dtype=float)
        if seed % 2:
            weights[-4:] = 0  # half the files hold numbers within the range only
        raw_rows = [  # short, full and overlong rows
            [str(c) for c in rng.choice(cells, size=rng.integers(0, len(header) + 3), p=weights / weights.sum())]
            for _ in range(rng.integers(0, 12))
        ]
        path = tmp_path / "in.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([header] + raw_rows)
        with open(path, newline="", encoding="utf-8") as fh:
            header, *raw_rows = list(csv.reader(fh))  # what read_csv reads, blank records too
        want, error = csv_cells_oracle(header, raw_rows, schema, path)
        if error is None:
            assert dataset_from_csv(path, target="y", schema=schema).rows == want
        else:
            with pytest.raises(SchemaError) as info:
                dataset_from_csv(path, target="y", schema=schema)
            assert str(info.value) == error
        # no schema: the kinds are inferred, overrides win, and a schema error
        # comes before any cell's
        overrides = {"s": "numeric", "a": "categorical"} if seed % 4 >= 2 else None
        try:
            inferred = FeatureSchema(csv_kinds_oracle(header, raw_rows, overrides), target="y")
        except SchemaError as exc:
            with pytest.raises(SchemaError) as info:
                dataset_from_csv(path, target="y", overrides=overrides)
            assert str(info.value) == str(exc)
            return
        want, error = csv_cells_oracle(header, raw_rows, inferred, path)
        if error is None:
            ds = dataset_from_csv(path, target="y", overrides=overrides)
            assert (ds.schema, ds.rows) == (inferred, want)
        else:
            with pytest.raises(SchemaError) as info:
                dataset_from_csv(path, target="y", overrides=overrides)
            assert str(info.value) == error


class TestReadCsv:
    """The one reader of every input file: blank records skipped, an empty
    file refused, and each record's line the one it starts on."""

    def test_records_with_a_non_empty_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a,b\n1,2\n\n,\n"x\ny",\n3\n', encoding="utf-8")
        assert read_csv(path) == (["a", "b"], [["1", "2"], ["x\ny", ""], ["3"]])
        assert record_lines(path) == [2, 5, 7]

    def test_empty_file_names_the_path(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: empty file")):
            read_csv(path)

    def test_multi_line_header_and_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"a\nb";c\n1;2\n', encoding="utf-8")
        assert read_csv(path, delimiter=";") == (["a\nb", "c"], [["1", "2"]])
        assert record_lines(path, delimiter=";") == [3]

    def test_bad_cell_after_a_multi_line_record_names_its_own_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('site,days\n"a\nb",5\nc,6\nd,inf\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:5: column 'days'")):
            dataset_from_csv(path, target="days")
        path.write_text('site,days\nc,6\n"a\nb",x\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: column 'days'")):
            dataset_from_csv(path, target="days", overrides={"days": "numeric"})
