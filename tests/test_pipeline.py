import os
import re
import subprocess
import sys
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from partqr.data import Dataset, FeatureSchema, SchemaError
from partqr.pipeline import (
    MilestoneRecord,
    attach_climate,
    build_gwa_dataset,
    build_milestone_dataset,
    chi_square_statistic,
    derive_date_features,
    fit_imputer,
    gap_matrix,
    impute,
    intermediate_durations,
    lag_features,
    load_climate_table,
    prune_tail,
    read_gwa_trace,
    rank_milestones,
    read_milestone_csv,
    select_categorical,
    select_numeric,
    zip_region,
)


def rec(project, milestone, actual=None, phase=None, **kw):
    return MilestoneRecord(
        project_id=project,
        site_id=kw.pop("site_id", "s1"),
        milestone=milestone,
        phase=phase,
        actual_date=date.fromisoformat(actual) if actual else None,
        **kw,
    )


class TestDateFeatures:
    def test_examples(self):
        assert derive_date_features("2021-05-17") == (5, 2, 2021)
        assert derive_date_features("2020-12-31") == (12, 4, 2020)
        assert derive_date_features("2020-01-01") == (1, 1, 2020)

    def test_accepts_date_objects(self):
        assert derive_date_features(date(2023, 7, 4)) == (7, 3, 2023)

    def test_unparseable(self):
        with pytest.raises(ValueError):
            derive_date_features("not-a-date")


class TestZipRegion:
    def test_examples(self):
        assert zip_region("75201") == "75"
        assert zip_region("07030") == "07"
        assert zip_region("9") == "9"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            zip_region("")


class TestClimate:
    def test_lookup(self):
        assert attach_climate("TX", {"TX": "hot-arid"}) == "hot-arid"

    def test_missing_region(self):
        assert attach_climate("VT", {"TX": "hot-arid"}) == "unknown"

    def test_empty_table(self):
        assert attach_climate("TX", {}) == "unknown"

    def test_load_table(self, tmp_path):
        path = tmp_path / "climate.csv"
        path.write_text("region,climate\nTX,hot-arid\nWA,marine\n", encoding="utf-8")
        assert load_climate_table(path) == {"TX": "hot-arid", "WA": "marine"}

    def test_malformed_table(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("region,climate,junk\nTX,hot,x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_climate_table(path)

    def test_malformed_row_names_its_line(self, tmp_path):
        path = tmp_path / "climate.csv"
        path.write_text("region,climate\nTX,hot\nWA,marine,wet\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed row")):
            load_climate_table(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "climate.csv"
        path.write_text("region,climate\nTX,hot-arid\n\nWA,marine\n\n", encoding="utf-8")
        assert load_climate_table(path) == {"TX": "hot-arid", "WA": "marine"}

    def test_short_row_is_malformed(self, tmp_path):
        path = tmp_path / "climate.csv"
        path.write_text('region,climate\n"T\nX",hot\nWA\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:4: malformed row ['WA']")):
            load_climate_table(path)


class TestIntermediateDurations:
    def test_date_arithmetic(self):
        records = [
            rec("p1", "start", "2021-01-01"),
            rec("p1", "mid", "2021-01-11"),
            rec("p1", "end", "2021-02-01"),
        ]
        rows, report = intermediate_durations(records, "start", ["mid"], "end")
        assert rows == [(10.0, 31.0)]
        assert report.total == 0

    def test_missing_intermediate_excluded(self):
        records = [rec("p1", "start", "2021-01-01"), rec("p1", "end", "2021-02-01")]
        rows, report = intermediate_durations(records, "start", ["mid"], "end")
        assert rows == []
        assert report.missing_milestone == 1

    def test_ordering_violation_excluded(self):
        records = [
            rec("p1", "start", "2021-01-01"),
            rec("p1", "mid", "2021-03-01"),
            rec("p1", "end", "2021-02-01"),
        ]
        rows, report = intermediate_durations(records, "start", ["mid"], "end")
        assert rows == []
        assert report.ordering_violation == 1

    def test_matches_milestone_dataset(self):
        records = [
            rec("p1", "start", "2021-01-01"),
            rec("p1", "mid", "2021-01-11"),
            rec("p1", "late", "2021-01-20"),
            rec("p1", "end", "2021-02-01"),
            rec("p2", "start", "2021-01-05"),
            rec("p2", "end", "2021-01-25"),
            rec("p3", "start", "2021-02-01"),
            rec("p3", "mid", "2021-04-01"),
            rec("p3", "late", "2021-02-10"),
            rec("p3", "end", "2021-03-01"),
            rec("p4", "start", "2021-03-01"),
            rec("p4", "mid", "2021-03-02"),
            rec("p4", "late", "2021-03-09"),
            rec("p4", "end", "2021-03-10"),
        ]
        rows, report = intermediate_durations(records, "start", ["mid", "late"], "end")
        ds, ds_report = build_milestone_dataset(records, "start", ["mid", "late"], "end")
        cols = [ds.schema.index_of(c) for c in ("mid_days", "late_days", "target_days")]
        assert rows == [(10.0, 19.0, 31.0), (1.0, 8.0, 9.0)]
        assert [tuple(r[j] for j in cols) for r in ds.rows] == rows
        assert report == ds_report
        assert (report.missing_milestone, report.ordering_violation) == (1, 1)


class TestPruneTail:
    def make(self, values):
        schema = FeatureSchema((("v", "numeric"), ("y", "numeric")), target="y")
        return Dataset(schema, tuple((float(v), 0.0) for v in values))

    def test_removes_above_cap(self):
        ds, removed = prune_tail(self.make([5, 20, 400]), "v", 100)
        assert [r[0] for r in ds.rows] == [5.0, 20.0]
        assert removed == 1

    def test_cap_above_max_unchanged(self):
        ds, removed = prune_tail(self.make([5, 20]), "v", 100)
        assert ds.n_rows == 2 and removed == 0

    def test_all_removed_warns(self):
        with pytest.warns(UserWarning):
            ds, removed = prune_tail(self.make([200, 300]), "v", 100)
        assert ds.n_rows == 0 and removed == 2

    def test_never_modifies_values(self):
        original = self.make([5, 20, 400])
        ds, _ = prune_tail(original, "v", 100)
        assert all(row in original.rows for row in ds.rows)


class TestRankMilestones:
    def test_strict_ordering(self):
        records = [
            rec("p1", "A", "2021-01-01", phase="build"),
            rec("p1", "B", "2021-02-01", phase="build"),
            rec("p2", "A", "2021-03-01", phase="build"),
            rec("p2", "B", "2021-04-01", phase="build"),
        ]
        assert rank_milestones(records)["build"] == ["A", "B"]

    def test_majority_ordering(self):
        records = []
        for p, (da, db) in (
            ("p1", ("2021-01-01", "2021-01-05")),
            ("p2", ("2021-01-01", "2021-01-05")),
            ("p3", ("2021-01-05", "2021-01-01")),
        ):
            records += [rec(p, "A", da, phase="x"), rec(p, "B", db, phase="x")]
        # A mean rank (1+1+2)/3 = 1.33 < B 1.67
        assert rank_milestones(records)["x"] == ["A", "B"]

    def test_single_milestone(self):
        assert rank_milestones([rec("p1", "A", "2021-01-01", phase="x")])["x"] == ["A"]

    def test_no_dated_milestones(self):
        with pytest.raises(ValueError):
            rank_milestones([rec("p1", "A", None, phase="x")])


class TestGapMatrix:
    def test_identical_dates_zero_matrix(self):
        records = [
            rec("p1", "A", "2021-01-01"),
            rec("p1", "B", "2021-01-01"),
        ]
        gm = gap_matrix(records)
        assert gm.cell("A", "B") == (0.0, 0.0, 1)
        assert gm.cell("A", "A") == (0.0, 0.0, 1)

    def test_mean_median_support(self):
        records = [
            rec("p1", "A", "2021-01-01"),
            rec("p1", "B", "2021-01-04"),
            rec("p2", "A", "2021-02-01"),
            rec("p2", "B", "2021-02-06"),
        ]
        gm = gap_matrix(records)
        assert gm.cell("A", "B") == (4.0, 4.0, 2)
        assert gm.cell("B", "A") == (-4.0, -4.0, 2)

    def test_antisymmetry_random(self):
        rng = np.random.default_rng(0)
        records = []
        names = ["A", "B", "C", "D"]
        for p in range(12):
            base = date(2021, 1, 1)
            for m in names:
                if rng.random() < 0.8:
                    d = base.toordinal() + int(rng.integers(0, 60))
                    records.append(rec(f"p{p}", m, date.fromordinal(d).isoformat()))
        gm = gap_matrix(records)
        m = len(gm.milestones)
        for i in range(m):
            assert gm.mean_days[i, i] in (0.0,) or np.isnan(gm.mean_days[i, i])
            for j in range(m):
                if gm.support[i, j]:
                    assert gm.support[i, j] == gm.support[j, i]
                    assert gm.mean_days[i, j] == pytest.approx(-gm.mean_days[j, i])


class TestSelectNumeric:
    def make(self, cols, target):
        names = sorted(cols)
        schema = FeatureSchema(
            tuple((n, "numeric") for n in names) + (("y", "numeric"),), target="y"
        )
        rows = tuple(
            tuple(float(cols[n][i]) for n in names) + (float(target[i]),)
            for i in range(len(target))
        )
        return Dataset(schema, rows)

    def test_identical_column_retained(self):
        y = np.arange(20.0)
        ds = self.make({"same": y}, y)
        assert select_numeric(ds, "y", 0.9) == ["same"]

    def test_constant_column_dropped(self):
        y = np.arange(20.0)
        ds = self.make({"const": np.ones(20)}, y)
        assert select_numeric(ds, "y", 0.0) == []

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=200)
        cols = {
            "strong": y + rng.normal(0, 0.3, 200),
            "weak": rng.normal(size=200),
            "anti": -y + rng.normal(0, 0.5, 200),
        }
        ds = self.make(cols, y)
        got = select_numeric(ds, "y", 0.5)
        want = sorted(
            n for n, v in cols.items() if abs(np.corrcoef(v, y)[0, 1]) >= 0.5
        )
        assert sorted(got) == want


class TestSelectCategorical:
    def make(self, cat, target):
        schema = FeatureSchema(
            (("c", "categorical"), ("y", "numeric")), target="y"
        )
        return Dataset(schema, tuple((c, float(t)) for c, t in zip(cat, target)))

    def test_perfect_determinant_retained(self):
        rng = np.random.default_rng(5)
        quart = rng.integers(0, 4, 400)
        cat = np.array(["abcd"[q] for q in quart])
        target = quart * 10.0 + rng.uniform(0, 1, 400)
        ds = self.make(cat, target)
        assert select_categorical(ds, "y", 0.05) == ["c"]
        # check the statistic is extreme
        from partqr.pipeline import quartile_bins

        bins = quartile_bins(target)
        table = np.zeros((4, bins.max() + 1))
        for c, b in zip(cat, bins):
            table["abcd".index(c), b] += 1
        _, _, p = chi_square_statistic(table)
        assert p < 1e-6

    def test_independent_category_not_retained(self):
        rng = np.random.default_rng(17)
        cat = rng.choice(["a", "b", "c"], 400)
        target = rng.normal(size=400)
        ds = self.make(cat, target)
        assert select_categorical(ds, "y", 0.05) == []

    def test_single_level_dropped(self):
        ds = self.make(["a"] * 40, np.arange(40.0))
        assert select_categorical(ds, "y", 0.99) == []


class TestChiSquarePValue:
    """p is scipy.stats.chi2.sf(stat, dof) bit for bit; scipy.stats is the
    oracle here and is imported by no module of partqr."""

    def assert_oracle(self, table):
        from scipy.stats import chi2

        stat, dof, p = chi_square_statistic(table)
        assert p.hex() == float(chi2.sf(stat, dof)).hex()
        return stat, p

    @pytest.mark.parametrize("shape", [(r, c) for r in range(2, 7) for c in range(2, 5)])
    def test_random_tables(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        for _ in range(20):
            self.assert_oracle(rng.integers(1, 60, size=shape))

    def test_independent_table(self):
        stat, p = self.assert_oracle(4 * np.outer([1, 2, 3], [2, 5]))
        assert stat == 0.0 and p == 1.0

    @pytest.mark.parametrize("count", [40, 5000])
    def test_extreme_table_underflows(self, count):
        _, p = self.assert_oracle(np.diag([count] * 4))
        assert p < 1e-40


def test_partqr_never_imports_scipy_stats():
    """A process that imports the CLI, screens a categorical column and solves
    a quantile LP has not loaded scipy.stats (about 0.5 s of start-up)."""
    script = """
import sys
import numpy as np
import partqr, partqr.cli
from partqr.data import Dataset, FeatureSchema
from partqr.linear import fit_quantile
from partqr.pipeline import select_categorical

schema = FeatureSchema((("c", "categorical"), ("y", "numeric")), target="y")
select_categorical(Dataset(schema, tuple(("ab"[i % 2], float(i)) for i in range(40))), "y")
rng = np.random.default_rng(0)
fit_quantile(rng.normal(size=(30, 2)), rng.normal(size=30), 0.5, 0.1)
loaded = sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats."))
if loaded:
    print("scipy.stats loaded:", loaded)
    sys.exit(1)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


class TestLagFeatures:
    def test_example_series(self):
        rows = lag_features([1, 2, 3, 4, 5], 3)
        assert rows[0] == (3.0, 2.0, 1.0, 4.0)
        assert rows[1] == (4.0, 3.0, 2.0, 5.0)

    def test_row_count(self):
        assert len(lag_features(list(range(50)), 3)) == 47

    def test_too_short(self):
        with pytest.raises(ValueError):
            lag_features([1, 2, 3], 3)

    def test_blank_cell_passes_through(self):
        assert lag_features([1, None, 3, 4], 2) == [(None, 1.0, 3.0), (3.0, None, 4.0)]

    def test_no_cross_series_mixing(self, tmp_path):
        header = "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];CPU usage [MHZ]"
        t0 = 1_600_000_000_000
        a = [header] + [
            f"{t0 + i * 300000};4;2600;{100 + i}" for i in range(6)
        ]
        b = [header] + [
            f"{t0 + i * 300000};2;1300;{900 + i}" for i in range(6)
        ]
        pa, pb = tmp_path / "vm_a.csv", tmp_path / "vm_b.csv"
        pa.write_text("\n".join(a) + "\n", encoding="utf-8")
        pb.write_text("\n".join(b) + "\n", encoding="utf-8")
        ds = build_gwa_dataset([pa, pb], lag_count=3)
        assert ds.n_rows == 6  # (6-3) per VM
        lag_cols = [ds.schema.index_of(f"usage_lag_{i}") for i in (1, 2, 3)]
        for row in ds.rows:
            lags = {row[j] for j in lag_cols}
            assert all(v < 500 for v in lags) or all(v > 500 for v in lags)


class TestReadGwaTrace:
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "busy"])
    def test_bad_cell_names_line_and_column(self, tmp_path, cell):
        path = tmp_path / "vm.csv"
        path.write_text(
            "Timestamp [ms];CPU cores;CPU usage [MHZ]\n"
            "1600000000000;4;100\n"
            f"1600000300000;4;{cell}\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: column 'CPU usage [MHZ]'")):
            read_gwa_trace(path)

    def test_empty_cell_reads_as_missing(self, tmp_path):
        path = tmp_path / "vm.csv"
        path.write_text(
            "Timestamp [ms];CPU cores;CPU usage [MHZ]\n1600000000000;;100.5\n", encoding="utf-8"
        )
        assert read_gwa_trace(path)["CPU cores"] == [None]
        assert read_gwa_trace(path)["CPU usage [MHZ]"] == [100.5]

    def test_short_row_reads_as_missing_cells(self, tmp_path):
        path = tmp_path / "vm.csv"
        path.write_text(
            "Timestamp [ms];CPU usage [MHZ];CPU cores\n1600000000000;100;4\n1600000300000;90\n",
            encoding="utf-8",
        )
        assert read_gwa_trace(path) == {
            "Timestamp [ms]": [1600000000000.0, 1600000300000.0],
            "CPU usage [MHZ]": [100.0, 90.0],
            "CPU cores": [4.0, None],
        }

    def test_row_blank_after_strip_is_skipped(self, tmp_path):
        path = tmp_path / "vm.csv"
        path.write_text(
            "Timestamp [ms];\tCPU usage [MHZ]\n1600000000000;\t100\n\t;\t\n1600000300000;\tbusy\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=re.escape(f"{path}:4: column 'CPU usage [MHZ]'")):
            read_gwa_trace(path)
        path.write_text(
            "Timestamp [ms];\tCPU usage [MHZ]\n1600000000000;\t100\n\t;\t\n1600000300000;\t90\n",
            encoding="utf-8",
        )
        assert read_gwa_trace(path) == {
            "Timestamp [ms]": [1600000000000.0, 1600000300000.0], "CPU usage [MHZ]": [100.0, 90.0]
        }

    def test_empty_trace_names_the_file(self, tmp_path):
        path = tmp_path / "vm.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}: empty file")):
            read_gwa_trace(path)


class TestImpute:
    def make(self, values, kind="numeric"):
        schema = FeatureSchema(
            (("v", kind), ("y", "numeric")), target="y"
        )
        return Dataset(schema, tuple((v, 0.0) for v in values))

    def test_numeric_median(self):
        ds = impute(self.make([1.0, None, 3.0]))
        assert [r[0] for r in ds.rows] == [1.0, 2.0, 3.0]

    def test_categorical_missing_level(self):
        ds = impute(self.make(["A", None, "B"], kind="categorical"))
        assert [r[0] for r in ds.rows] == ["A", "missing", "B"]

    def test_test_fold_uses_train_median(self):
        train = self.make([1.0, 2.0, 9.0])
        test = self.make([None])
        imputer = fit_imputer(train)
        out = imputer.transform(test)
        assert out.rows[0][0] == 2.0  # train median, not anything test-local

    def test_all_missing_column_dropped(self):
        schema = FeatureSchema(
            (("gone", "numeric"), ("keep", "numeric"), ("y", "numeric")), target="y"
        )
        ds = Dataset(schema, ((None, 1.0, 0.0), (None, 2.0, 1.0)))
        with pytest.warns(UserWarning):
            out = impute(ds)
        assert [n for n, _ in out.schema.columns] == ["keep", "y"]

    def test_missing_target_rows_dropped(self):
        ds = self.make([1.0, 2.0])
        ds = Dataset(ds.schema, ds.rows + ((3.0, None),))
        out = impute(ds)
        assert out.n_rows == 2

    @staticmethod
    def transform_case(drop: bool):
        """A set with numeric and categorical gaps, a missing-target row and an
        id column; with `drop`, also an all-missing column between kept ones.
        Returns the fitted imputer, its transform and a per-cell reference."""
        schema = FeatureSchema(
            (
                ("site", "identifier"),
                ("region", "categorical"),
                ("gone", "numeric"),
                ("y", "numeric"),
                ("days", "numeric"),
            ),
            target="y",
        )
        rng = np.random.default_rng(3)
        rows = []
        for i in range(40):
            region = None if i % 7 == 0 else str(rng.choice(["east", "west"]))
            days = None if i % 5 == 1 else float(rng.normal())
            y = None if i % 9 == 4 else float(i)
            rows.append((f"s{i}", region, None if drop else float(i % 3), y, days))
        ds = Dataset(schema, tuple(rows))
        if drop:
            with pytest.warns(UserWarning):
                imputer = fit_imputer(ds)
        else:
            imputer = fit_imputer(ds)

        keep = [(n, k) for n, k in schema.columns if n not in imputer.dropped_columns]
        target_j = schema.index_of(schema.target)
        out = []
        for row in ds.rows:
            if row[target_j] is None:
                continue
            vals = []
            for name, kind in keep:
                v = row[schema.index_of(name)]
                if v is None:
                    v = imputer.numeric_fill[name] if kind == "numeric" else "missing"
                vals.append(v)
            out.append(tuple(vals))
        return imputer, imputer.transform(ds), tuple(keep), tuple(out)

    def test_transform_matches_per_cell_reference(self):
        imputer, got, keep, want_rows = self.transform_case(drop=True)
        assert imputer.dropped_columns == ("gone",)
        assert got.schema.columns == keep
        assert got.schema.target == "y"
        assert got.rows == want_rows
        assert got.n_rows == 40 - imputer.dropped_target_rows == 36
        assert {r[1] for r in got.rows} == {"east", "west", "missing"}
        assert sum(r[3] == imputer.numeric_fill["days"] for r in got.rows) >= 7

    def test_transform_without_dropped_column_matches_reference(self):
        imputer, got, keep, want_rows = self.transform_case(drop=False)
        assert imputer.dropped_columns == ()
        assert got.schema.columns == keep and len(keep) == 5
        assert got.rows == want_rows
        assert sum(r[4] == imputer.numeric_fill["days"] for r in got.rows) >= 7


class TestMilestoneCsv:
    @pytest.mark.parametrize("column", ["latitude", "longitude"])
    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "north"])
    def test_bad_coordinate_names_line_and_column(self, tmp_path, column, cell):
        path = tmp_path / "m.csv"
        good = {"latitude": "32.7", "longitude": "-96.8"}
        bad = {**good, column: cell}
        path.write_text(
            "project_id,site_id,milestone,actual_date,latitude,longitude\n"
            f"p1,s1,start,2021-01-01,{good['latitude']},{good['longitude']}\n"
            f"p1,s1,end,2021-02-01,{bad['latitude']},{bad['longitude']}\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: column {column!r}")):
            read_milestone_csv(path)

    def test_bad_actual_date_names_line_and_column(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "project_id,site_id,milestone,actual_date\n"
            "p1,s1,start,2020-12-01\n"
            "p1,s1,end,2020-13-01\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=re.escape(f"{path}:3: column 'actual_date'")):
            read_milestone_csv(path)

    def test_bad_cell_names_the_line_its_record_starts_on(self, tmp_path):
        path = tmp_path / "m.csv"
        header = "project_id,site_id,milestone,actual_date,latitude\n"
        path.write_text(header + 'p1,"s\n1",start,2021-01-01,north\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: column 'latitude'")):
            read_milestone_csv(path)
        path.write_text(header + 'p1,"s\n1",start,2021-13-01,1\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=re.escape(f"{path}:2: column 'actual_date'")):
            read_milestone_csv(path)

    def test_first_bad_cell_in_row_order(self, tmp_path):
        """Of a bad date and a bad coordinate, the one on the earlier record
        is named; on one record, the date."""
        path = tmp_path / "m.csv"
        header = "project_id,site_id,milestone,latitude,actual_date\n"
        for body, line, column in (
            ("p1,s1,a,x,2021-01-01\np1,s1,b,1,bad\n", 2, "latitude"),
            ("p1,s1,a,1,bad\np1,s1,b,x,2021-01-01\n", 2, "actual_date"),
            ("p1,s1,a,x,bad\n", 2, "actual_date"),
        ):
            path.write_text(header + body, encoding="utf-8")
            with pytest.raises(SchemaError, match=re.escape(f"{path}:{line}: column {column!r}")):
                read_milestone_csv(path)

    def test_blank_and_short_records(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "project_id,site_id,milestone,actual_date,latitude\n,,,,\n\np1,s1,start\n",
            encoding="utf-8",
        )
        assert read_milestone_csv(path) == [MilestoneRecord("p1", "s1", "start")]

    def test_unread_columns_are_not_parsed(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "project_id,site_id,milestone,planned_date,actual_date,nature,technology\n"
            "p1,s1,start,not-a-date,2021-01-01,new,5G\n",
            encoding="utf-8",
        )
        (record,) = read_milestone_csv(path)
        assert record.actual_date == date(2021, 1, 1)
        fields = set(MilestoneRecord.__dataclass_fields__)
        assert not fields & {"planned_date", "nature", "technology"}

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "project_id,site_id,milestone,phase,actual_date,state,zip\n"
            "p1,s1,start,build,2021-01-01,TX,75201\n"
            "p1,s1,end,build,2021-02-01,TX,75201\n",
            encoding="utf-8",
        )
        records = read_milestone_csv(path)
        assert len(records) == 2
        assert records[0].actual_date == date(2021, 1, 1)
        assert records[0].zip_code == "75201"

    def test_build_dataset(self):
        records = []
        for p in range(6):
            start = date(2021, 1, 1 + p)
            records += [
                rec(f"p{p}", "start", start.isoformat(), state="TX", zip_code="75201"),
                rec(f"p{p}", "mid", date(2021, 1, 10 + p).isoformat(), state="TX", zip_code="75201"),
                rec(f"p{p}", "end", date(2021, 2, 1 + p).isoformat(), state="TX", zip_code="75201"),
            ]
        ds, report = build_milestone_dataset(
            records, "start", ["mid"], "end", climate_table={"TX": "hot"}
        )
        assert ds.n_rows == 6 and report.total == 0
        assert ds.schema.target == "target_days"
        j = ds.schema.index_of("climate")
        assert all(r[j] == "hot" for r in ds.rows)
        assert ds.rows[0][ds.schema.index_of("zip2")] == "75"
