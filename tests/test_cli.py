import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from partqr import cli
from partqr.cli import main, write_dataset_csv
from partqr.models import fit_model
from partqr.serialize import load_model, model_to_json, save_model
from partqr.synthetic import (
    SyntheticSpec,
    generate_synthetic,
    mixture_quantile,
    spec_from_json,
    synthetic_true_quantile_rows,
)


@pytest.fixture
def synth_csv(tmp_path):
    ds = generate_synthetic(SyntheticSpec(n_projects=150, seed=3))
    path = tmp_path / "data.csv"
    write_dataset_csv(ds, path)
    return path


def write_config(tmp_path, data_path, **extra):
    doc = {
        "data": {"path": str(data_path), "format": "generic-csv", "target": "target_days"},
        "model": {
            "name": "quantile_tree",
            "grid": {"lam": [0.1], "max_depth": [2], "min_samples_split": [10]},
        },
        "cv": {"folds": 4, "seed": 11},
        "output": {"model_path": str(tmp_path / "model.json")},
    }
    for key, value in extra.items():
        doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


class TestTrain:
    def test_round_trip(self, tmp_path, synth_csv, capsys):
        config = write_config(tmp_path, synth_csv)
        assert main(["train", "--config", str(config)]) == 0
        fitted = load_model(tmp_path / "model.json")
        preds = fitted.predict_point([("metro", 10.0, 20.0, 30.0, 15.0, 0.0)])
        assert np.isfinite(preds[0])

    def test_missing_data_path_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "nope.csv")
        assert main(["train", "--config", str(config)]) == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_cap_on_missing_column_exit_2(self, tmp_path, synth_csv, capsys):
        config = write_config(tmp_path, synth_csv, pipeline={"tail_caps": {"nope": 5}})
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "error in stage 'grid-search': tail cap 'nope' (cap 5) names a missing column" in err
        assert "the data has no column 'nope'" in err
        assert not (tmp_path / "model.json").exists()

    def test_cap_on_categorical_column_exit_2(self, tmp_path, synth_csv, capsys):
        config = write_config(tmp_path, synth_csv, pipeline={"tail_caps": {"site_category": 5}})
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert (
            "error in stage 'grid-search': tail cap 'site_category' (cap 5) names a "
            "categorical column: only numeric columns can be capped"
        ) in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_unknown_grid_name_exit_2(self, tmp_path, synth_csv, capsys, command):
        config = write_config(
            tmp_path, synth_csv, models=["ridge"], model={"name": "ridge", "grid": {"lamda": [0.1]}},
            output={"model_path": str(tmp_path / "model.json"),
                    "report_json": str(tmp_path / "report.json")},
        )
        assert main([command, "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "unknown hyperparameter 'lamda' in the grid of 'ridge': it reads only ['lam']" in err
        assert not (tmp_path / "model.json").exists() and not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "name, grid, key, value, kind",
        [
            ("decision_tree", {"max_depth": [2.5]}, "max_depth", "2.5", "an integer"),
            ("decision_tree", {"max_depth": ["3"]}, "max_depth", "'3'", "an integer"),
            ("random_forest", {"max_depth": [2], "n_trees": [2.9]}, "n_trees", "2.9", "an integer"),
            ("gradient_boosting", {"n_stages": [5.5], "learning_rate": [0.1]}, "n_stages", "5.5",
             "an integer"),
            ("ridge", {"lam": ["0.1"]}, "lam", "'0.1'", "a finite number >= 0"),
            ("nn_qr", {"lam": [0.1], "n_neighbors": [True]}, "n_neighbors", "True", "an integer"),
        ],
    )
    def test_wrong_typed_grid_value_exit_2(self, tmp_path, synth_csv, capsys, name, grid, key,
                                           value, kind):
        config = write_config(tmp_path, synth_csv, model={"name": name, "grid": grid})
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert (f"error in stage 'grid-search': hyperparameter {key!r} in the grid of {name!r} "
                f"must be {kind}, not {value}") in err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("lam", ["NaN", "Infinity", "-Infinity", "-0.5"])
    @pytest.mark.parametrize(
        "name, grid",
        [
            ("quantile_tree", {"max_depth": [2], "min_samples_split": [10]}),
            ("ridge", {}),
            ("nn_qr", {"n_neighbors": [10]}),
        ],
    )
    def test_lam_that_is_not_finite_and_nonnegative_exit_2(self, tmp_path, synth_csv, capsys,
                                                             monkeypatch, name, grid, lam):
        from partqr import evaluation

        # JSON configs admit NaN and Infinity: no fold may be prepared for them
        monkeypatch.setattr(evaluation, "prepare_search", None)
        config = write_config(tmp_path, synth_csv, model={"name": name, "grid": {"lam": [0.1], **grid}})
        config.write_text(config.read_text().replace("[0.1]", f"[0.1, {lam}]"))
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert (f"error in stage 'grid-search': hyperparameter 'lam' in the grid of {name!r} "
                f"must be a finite number >= 0, not {float(lam)!r}") in err
        assert not (tmp_path / "model.json").exists()

    def test_rejected_quantile_lp_exit_1(self, tmp_path, synth_csv, capsys, monkeypatch):
        from partqr import linear

        highs = linear._highs

        class Rejecting(highs._Highs):
            def passModel(self, *args):
                return highs.HighsStatus.kError

        monkeypatch.setattr(highs, "_Highs", Rejecting)
        config = write_config(tmp_path, synth_csv)
        assert main(["train", "--config", str(config)]) == 1
        assert "quantile LP failed: HiGHS rejected passModel" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_target_near_1e10_trains(self, tmp_path, synth_csv, capsys):
        # durations in milliseconds: the leaves' quantile LPs run on scaled targets
        header, *rows = synth_csv.read_text(encoding="utf-8").splitlines()
        at = header.split(",").index("target_days")
        big = tmp_path / "big.csv"
        lines = [header]
        for row in rows:
            cells = row.split(",")
            cells[at] = repr(float(cells[at]) * 1e8)
            lines.append(",".join(cells))
        big.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, big)
        assert main(["train", "--config", str(config)]) == 0, capsys.readouterr().err
        fitted = load_model(tmp_path / "model.json")
        assert np.isfinite(fitted.predict_point([("metro", 10.0, 20.0, 30.0, 15.0, 0.0)])).all()

    def test_seed_required(self, tmp_path, synth_csv, capsys):
        doc = {
            "data": {"path": str(synth_csv), "format": "generic-csv", "target": "target_days"},
            "cv": {"folds": 4},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_identical_runs_byte_identical_models(self, tmp_path, synth_csv):
        config = write_config(tmp_path, synth_csv)
        main(["train", "--config", str(config)])
        first = (tmp_path / "model.json").read_bytes()
        main(["train", "--config", str(config)])
        assert (tmp_path / "model.json").read_bytes() == first

    def test_inf_cell_exit_2_at_ingest(self, tmp_path, synth_csv, capsys):
        lines = synth_csv.read_text(encoding="utf-8").splitlines()
        cells = lines[4].split(",")
        cells[lines[0].split(",").index("step2_days")] = "inf"
        lines[4] = ",".join(cells)
        synth_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, synth_csv)
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'ingest'" in err and f"{synth_csv}:5: column 'step2_days'" in err
        assert not (tmp_path / "model.json").exists()

    def test_bad_cell_after_a_multi_line_record_names_its_own_line(self, tmp_path, synth_csv, capsys):
        lines = synth_csv.read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("step2_days")
        cells = lines[1].split(",")
        cells[0] = f'"{cells[0]}\nnorth"'  # record 1 spans lines 2 and 3
        lines[1] = ",".join(cells)
        cells = lines[3].split(",")
        cells[column] = "inf"  # record 3 starts on line 5
        lines[3] = ",".join(cells)
        synth_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, synth_csv)
        assert main(["train", "--config", str(config)]) == 2
        assert f"{synth_csv}:5: column 'step2_days'" in capsys.readouterr().err

    def test_chi_square_screen_keeps_determinant_drops_independent(self, tmp_path):
        # crew sets the target quartile; every (crew, vendor) pair occurs 10
        # times, so vendor's table against the quartiles is uniform (p = 1)
        lines = ["crew,vendor,size,target_days"]
        for i in range(160):
            crew = i % 4
            lines.append(f"{'abcd'[crew]},{'wxyz'[(i // 4) % 4]},{i % 9},{10 * crew + (i % 7) / 10}")
        data = tmp_path / "planted.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = write_config(tmp_path, data, pipeline={"categorical_p_threshold": 0.05})
        assert main(["train", "--config", str(config)]) == 0
        columns = [name for name, _ in load_model(tmp_path / "model.json").schema.columns]
        assert "crew" in columns and "vendor" not in columns

    @pytest.mark.parametrize(
        "body, pipeline",
        [
            # an empty numeric predictor cell
            ("x,z,target_days\n1,2,3\n2,,5\n,1,4\n4,3,9\n5,5,11\n6,2,12\n",
             {"numeric_r_threshold": 0.1}),
            # an empty categorical cell and an empty target cell
            ("site,x,target_days\na,1,3\nb,2,\n,3,4\na,4,9\nb,5,11\na,6,12\nb,7,15\na,8,16\n",
             {"categorical_p_threshold": 0.5}),
        ],
        ids=["numeric", "categorical"],
    )
    def test_screens_skip_empty_cells(self, tmp_path, capsys, body, pipeline):
        data = tmp_path / "gaps.csv"
        data.write_text(body, encoding="utf-8")
        config = write_config(
            tmp_path, data, pipeline=pipeline,
            model={"name": "ridge", "grid": {"lam": [0.1]}}, cv={"folds": 2, "seed": 1},
        )
        assert main(["train", "--config", str(config)]) == 0, capsys.readouterr().err
        assert (tmp_path / "model.json").exists()

    def test_screens_of_a_complete_dataset_keep_the_row_formula_columns(self, tmp_path):
        from partqr.pipeline import chi_square_statistic, pearson_r, quartile_bins

        ds = generate_synthetic(SyntheticSpec(n_projects=300, seed=8))
        data = tmp_path / "full.csv"
        write_dataset_csv(ds, data)
        # both screens over all cells, row by row: with no empty cell, skipping them changes nothing
        y = np.array([float(v) for v in ds.column("target_days")])
        numeric = [
            name for name in ds.schema.numeric_predictors()
            if abs(pearson_r(np.array([float(v) for v in ds.column(name)]), y)) >= 0.55
        ]
        bins, categorical = quartile_bins(y), []
        for name in ds.schema.categorical_predictors():
            col = [str(v) for v in ds.column(name)]
            levels = sorted(set(col))
            table = np.zeros((len(levels), int(bins.max()) + 1))
            for v, b in zip(col, bins):
                table[levels.index(v), b] += 1
            if chi_square_statistic(table)[2] < 0.05:
                categorical.append(name)
        assert numeric and len(numeric) < len(ds.schema.numeric_predictors()) and categorical
        config = write_config(
            tmp_path, data, pipeline={"numeric_r_threshold": 0.55, "categorical_p_threshold": 0.05},
            model={"name": "ridge", "grid": {"lam": [0.1]}},
        )
        assert main(["train", "--config", str(config)]) == 0
        columns = [name for name, _ in load_model(tmp_path / "model.json").schema.columns]
        assert columns == [
            name for name, _ in ds.schema.columns
            if name in numeric + categorical + ["target_days"]
            or ds.schema.kind_of(name) in ("date", "identifier")
        ]

    @pytest.mark.parametrize("grid", [{}, {"lam": [0.1]}])
    def test_unknown_model_exit_2(self, tmp_path, synth_csv, capsys, grid):
        config = write_config(tmp_path, synth_csv, model={"name": "lasso", "grid": grid})
        assert main(["train", "--config", str(config)]) == 2
        assert "'config': unknown model 'lasso'" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_unknown_model_named_before_missing_data(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "missing.csv", model={"name": "lasso"})
        assert main(["train", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'config': unknown model 'lasso'" in err and "missing.csv" not in err

    def test_misspelt_key_exit_2_writes_nothing(self, tmp_path, synth_csv, capsys, monkeypatch):
        config = write_config(tmp_path, synth_csv)
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["outptu"] = doc.pop("output")
        config.write_text(json.dumps(doc), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", str(config)]) == 2
        assert "'config': unknown keys ['outptu']" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_config_threads_2_exit_2(self, tmp_path, synth_csv, capsys):
        config = write_config(tmp_path, synth_csv, threads=2)
        assert main(["train", "--config", str(config)]) == 2
        assert "'config': threads is 2: searches run serially" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize("command", ["train", "benchmark"])
    def test_threads_flag_is_refused(self, tmp_path, synth_csv, capsys, command):
        config = write_config(tmp_path, synth_csv)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(config), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_blank_rows_change_nothing(self, tmp_path, synth_csv):
        config = write_config(tmp_path, synth_csv, output={
            "model_path": str(tmp_path / "model.json"),
            "fit_report": str(tmp_path / "report.json"),
        })
        assert main(["train", "--config", str(config)]) == 0
        plain = [(tmp_path / n).read_bytes() for n in ("model.json", "report.json")]
        lines = synth_csv.read_text(encoding="utf-8").splitlines()
        blank = ",,,,,"
        synth_csv.write_text(
            "\n".join(lines[:3] + ["", blank] + lines[3:] + [""]) + "\n", encoding="utf-8"
        )
        assert main(["train", "--config", str(config)]) == 0
        assert [(tmp_path / n).read_bytes() for n in ("model.json", "report.json")] == plain


class TestPredict:
    def make_model(self, tmp_path, synth_csv):
        config = write_config(tmp_path, synth_csv)
        main(["train", "--config", str(config)])
        return tmp_path / "model.json"

    def test_empty_input_header_only(self, tmp_path, synth_csv):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\n", encoding="utf-8"
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == "lower,median,upper\n"

    def test_unseen_category_predicts(self, tmp_path, synth_csv):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\n"
            "lunar,10,20,30,15\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 2
        lo, med, hi = map(float, lines[1].split(","))
        assert lo <= med <= hi

    def test_never_mutates_inputs(self, tmp_path, synth_csv):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\nmetro,10,20,30,15\n",
            encoding="utf-8",
        )
        before_input = inp.read_bytes()
        before_model = (tmp_path / "model.json").read_bytes()
        main(["predict", "--model", str(model), "--input", str(inp), "--output", str(tmp_path / "o.csv")])
        assert inp.read_bytes() == before_input
        assert (tmp_path / "model.json").read_bytes() == before_model

    def test_matches_library_predictions(self, tmp_path, synth_csv):
        model_path = self.make_model(tmp_path, synth_csv)
        fitted = load_model(model_path)
        rows = [("metro", 10.0, 20.0, 30.0, 15.0, 0.0), ("remote", 5.0, 12.0, 20.0, 9.0, 0.0)]
        inp = tmp_path / "in.csv"
        with open(inp, "w", encoding="utf-8") as fh:
            fh.write("site_category,step1_days,step2_days,step3_days,step4_days\n")
            for r in rows:
                fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]}\n")
        out = tmp_path / "out.csv"
        main(["predict", "--model", str(model_path), "--input", str(inp), "--output", str(out)])
        lines = out.read_text(encoding="utf-8").strip().splitlines()[1:]
        for line, row in zip(lines, rows):
            lo, med, hi = map(float, line.split(","))
            assert [lo, med, hi] == fitted.predict_intervals([row])[0].tolist()

    def test_schema_mismatch_lists_missing(self, tmp_path, synth_csv, capsys):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text("site_category\nmetro\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        assert "step1_days" in err

    def test_blank_input_rows_skipped(self, tmp_path, synth_csv):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        header = "site_category,step1_days,step2_days,step3_days,step4_days\n"
        rows = ["metro,10,20,30,15\n", "remote,12,18,25,16\n"]
        inp.write_text(header + "".join(rows), encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
        plain = out.read_bytes()
        inp.write_text(header + rows[0] + "\n,,,,\n" + rows[1] + "\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
        assert out.read_bytes() == plain

    def test_empty_cells_filled_as_in_training(self, tmp_path, synth_csv):
        lines = synth_csv.read_text(encoding="utf-8").splitlines()
        header = lines[0].split(",")
        site, step2 = header.index("site_category"), header.index("step2_days")
        rows = [line.split(",") for line in lines[1:]]
        for row in rows[::10]:
            row[step2] = ""
        rows[5][site] = ""
        synth_csv.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")
        model = self.make_model(tmp_path, synth_csv)
        # the refit imputes the whole training set: its median, not a fold's
        median = float(np.median([float(r[step2]) for r in rows if r[step2]]))
        fill = json.loads(model.read_text(encoding="utf-8"))["fill"]
        assert fill["step2_days"] == median and fill["site_category"] == "missing"
        inp, out = tmp_path / "in.csv", tmp_path / "out.csv"
        header = "site_category,step1_days,step2_days,step3_days,step4_days\n"
        outputs = []
        for body in (
            "metro,10,,30,15\n,12,18,25,16\n",
            f"metro,10,{median!r},30,15\nmissing,12,18,25,16\n",
            f"metro,10,{median + 40!r},30,15\nmissing,12,18,25,16\n",
        ):
            inp.write_text(header + body, encoding="utf-8")
            assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]  # the filled value is read
        assert len(outputs[0].splitlines()) == 3

    @pytest.mark.parametrize(
        "row, column", [("metro,10,,30,15", "step2_days"), (",10,20,30,15", "site_category")]
    )
    def test_empty_cell_without_stored_fill_exit_2(self, tmp_path, capsys, row, column):
        train = generate_synthetic(SyntheticSpec(n_projects=60, seed=3))
        model = tmp_path / "model.json"
        save_model(model, fit_model("ridge", train, {"lam": 0.1}))
        assert json.loads(model.read_text(encoding="utf-8"))["fill"] == {}
        inp = tmp_path / "in.csv"
        inp.write_text(
            f"site_category,step1_days,step2_days,step3_days,step4_days\n{row}\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
        assert f"missing value in column {column!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_object_model_file_exit_2(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text("[1, 2]\n", encoding="utf-8")
        inp = tmp_path / "in.csv"
        inp.write_text("a\n1\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(inp)]) == 2
        assert "'load-model': a model file holds a JSON object" in capsys.readouterr().err

    def test_nan_cell_exit_2(self, tmp_path, synth_csv, capsys):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\n"
            "metro,10,20,30,15\n"
            "metro,10,nan,30,15\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
        assert f"{inp}:3: column 'step2_days'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_cell_after_a_multi_line_record_names_its_own_line(self, tmp_path, synth_csv, capsys):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\n"
            '"metro\nnorth",10,20,30,15\n'
            "metro,10,20,30,15\n"
            "metro,10,nan,30,15\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
        assert f"{inp}:5: column 'step2_days'" in capsys.readouterr().err
        assert not out.exists()

    def test_version_1_model_exit_2_writes_nothing(self, tmp_path, synth_csv, capsys):
        self.check_old_version_refused(tmp_path, synth_csv, capsys, 1)

    def test_version_2_model_exit_2_writes_nothing(self, tmp_path, synth_csv, capsys):
        self.check_old_version_refused(tmp_path, synth_csv, capsys, 2)

    def test_version_3_model_exit_2_writes_nothing(self, tmp_path, synth_csv, capsys):
        self.check_old_version_refused(tmp_path, synth_csv, capsys, 3)

    def test_version_4_model_exit_2_writes_nothing(self, tmp_path, synth_csv, capsys):
        self.check_old_version_refused(tmp_path, synth_csv, capsys, 4)

    def check_old_version_refused(self, tmp_path, synth_csv, capsys, version):
        model = self.make_model(tmp_path, synth_csv)
        doc = json.loads(model.read_text(encoding="utf-8"))
        assert doc["format_version"] == 5
        doc["format_version"] = version
        model.write_text(json.dumps(doc), encoding="utf-8")
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\nmetro,10,20,30,15\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        capsys.readouterr()
        assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"error in stage 'load-model': unsupported model format_version {version}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_non_finite_forecast_exit_1_writes_nothing(self, tmp_path, capsys, monkeypatch):
        class Broken:
            """A fitted model whose forecast for every row but the first is NaN."""

            schema = generate_synthetic(SyntheticSpec(n_projects=10, seed=3)).schema
            fill = {}

            def predict_intervals(self, rows):
                out = np.ones((len(rows), 3))
                out[1:, 1] = np.nan
                return out

        monkeypatch.setattr("partqr.cli.load_model", lambda path: Broken())
        header = "site_category,step1_days,step2_days,step3_days,step4_days\n"
        inp = tmp_path / "in.csv"
        out = tmp_path / "out.csv"
        # the line of the second input row, after a skipped all-empty line in the second case
        for body, line in (
            ("metro,10,20,30,15\nmetro,11,20,30,15\nmetro,12,20,30,15\n", 3),
            ("metro,10,20,30,15\n,,,,\nmetro,11,20,30,15\n", 4),
        ):
            inp.write_text(header + body, encoding="utf-8")
            args = ["predict", "--model", "m.json", "--input", str(inp), "--output", str(out)]
            assert main(args) == 1
            err = capsys.readouterr().err
            assert f"{inp}:{line}: non-finite forecast" in err and "input row 2" in err
            assert not out.exists()

    def test_non_finite_forecast_after_a_multi_line_record_names_its_own_line(
        self, tmp_path, capsys, monkeypatch
    ):
        class Broken:
            """A fitted model whose forecast for the second row is NaN."""

            schema = generate_synthetic(SyntheticSpec(n_projects=10, seed=3)).schema
            fill = {}

            def predict_intervals(self, rows):
                out = np.ones((len(rows), 3))
                out[1, 1] = np.nan
                return out

        monkeypatch.setattr("partqr.cli.load_model", lambda path: Broken())
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\n"
            '"metro\nnorth",10,20,30,15\n'
            "metro,11,20,30,15\n",
            encoding="utf-8",
        )
        args = ["predict", "--model", "m.json", "--input", str(inp), "--output", str(tmp_path / "o.csv")]
        assert main(args) == 1
        assert f"{inp}:4: non-finite forecast" in capsys.readouterr().err


# Model files are outside input: each edit below breaks one tree, or a
# table indexed by leaf id, of a model file that `partqr predict` must refuse
# at load time (exit 2) without writing anything. A tree is stored depth
# first, as its `feature` array (-1 at a leaf), its inner nodes' thresholds
# and its leaf values; a forest's or boosting run's trees are laid end to end
# with their node counts (`nodes`).
def _cycle(payload):
    """Every node an inner node: the tree a cycle would make, which no walk
    from the root leaves. A depth-first array cannot hold a cycle itself."""
    tree = payload["tree"]
    tree["feature"] = [0] * len(tree["feature"])


def _child_out_of_range(payload):
    # the last leaf becomes an inner node, whose children would lie past the tree
    payload["tree"]["feature"][-1] = 0


def _closes_early(payload):
    # the root's left child becomes a leaf: the tree closes before its last node
    tree = payload["tree"]
    assert tree["feature"][1] >= 0
    tree["feature"][1] = -1


def _shifted_node_counts(payload):
    # the counts still sum to the nodes, but tree 0 takes tree 1's root
    nodes = payload["boosted"]["trees"]["nodes"]
    nodes[0] += 1
    nodes[1] -= 1


def _feature_out_of_range(payload):
    trees = payload["forest"]["trees"]
    trees["feature"][trees["nodes"][0]] = 999  # tree 1's root


def _feature_below_minus_one(payload):
    payload["tree"]["feature"][0] = -2


def _short_value(payload):
    payload["boosted"]["trees"]["value"].pop()


def _short_threshold(payload):
    payload["forest"]["trees"]["threshold"].pop()


def _long_value(payload):
    values = payload["tree"]["value"]
    values.append(values[-1])


def _leaf_without_estimators(payload):
    estimators = payload["composite"]["estimators"]
    del estimators[max(estimators, key=int)]


def _tree_without_feature_subset(payload):
    payload["forest"]["feature_subsets"].pop()


def _short_in_bag_leaf(payload):
    payload["qrf"]["in_bag_leaf"][2].pop()


def _in_bag_leaf_past_last_leaf(payload):
    forest = payload["qrf"]
    n_leaves = forest["trees"]["feature"][: forest["trees"]["nodes"][0]].count(-1)
    forest["in_bag_leaf"][0][5] = n_leaves


def _nan_last_leaf(payload):
    payload["tree"]["value"][-1] = float("nan")


def _infinite_threshold(payload):
    payload["forest"]["trees"]["threshold"][2] = float("inf")


def _half_feature(payload):
    payload["tree"]["feature"][0] += 0.5


def _float_node_count(payload):
    nodes = payload["boosted"]["trees"]["nodes"]
    nodes[1] = float(nodes[1])


def _bool_feature(payload):
    payload["composite"]["tree"]["feature"][0] = True


def _huge_feature(payload):
    payload["tree"]["feature"][0] = 2**70


MALFORMED = {  # case -> (model, payload key, edit, what the error says)
    "child_out_of_range": (
        "decision_tree", "tree", _child_out_of_range, "tree key 'feature' must list each tree depth first"
    ),
    "closes_early": ("decision_tree", "tree", _closes_early, "tree 0 of 17 nodes closes at node 6"),
    "shifted_node_counts": ("gradient_boosting", "boosted", _shifted_node_counts, "tree 0 of"),
    "feature_out_of_range": (
        "random_forest", "forest", _feature_out_of_range, "tree key 'feature' must lie in [-1, 7)"
    ),
    "feature_below_minus_one": (
        "decision_tree", "tree", _feature_below_minus_one, "tree key 'feature' must lie in [-1, 7)"
    ),
    "short_value": ("gradient_boosting", "boosted", _short_value, "tree key 'value' must hold one number per leaf"),
    "long_value": ("decision_tree", "tree", _long_value, "tree key 'value' must hold one number per leaf"),
    "short_threshold": (
        "random_forest", "forest", _short_threshold, "tree key 'threshold' must hold one number per inner node"
    ),
    "leaf_without_estimators": ("quantile_tree", "composite", _leaf_without_estimators, "estimators are keyed"),
    "tree_without_feature_subset": (
        "random_forest", "forest", _tree_without_feature_subset, "one feature_subsets list per tree"
    ),
    "short_in_bag_leaf": ("qrf", "qrf", _short_in_bag_leaf, "in_bag_leaf 2 must"),
    "in_bag_leaf_past_last_leaf": ("qrf", "qrf", _in_bag_leaf_past_last_leaf, "in_bag_leaf 0 must"),
    "nan_leaf_value": ("decision_tree", "tree", _nan_last_leaf, "tree key 'value' must be a list of finite"),
    "infinite_threshold": (
        "random_forest", "forest", _infinite_threshold, "tree key 'threshold' must be a list of finite"
    ),
    "half_feature": ("decision_tree", "tree", _half_feature, "'feature' must be a list of JSON integers"),
    "float_node_count": ("gradient_boosting", "boosted", _float_node_count, "'nodes' must be a list of JSON integers"),
    "bool_feature": ("quantile_tree", "composite", _bool_feature, "'feature' must be a list of JSON integers"),
    "huge_feature": ("decision_tree", "tree", _huge_feature, "malformed (OverflowError:"),
}
MALFORMED_PARAMS = {
    "decision_tree": {"max_depth": 4, "min_samples_split": 10},
    "random_forest": {"max_depth": 3, "min_samples_split": 10, "n_trees": 4},
    "qrf": {"max_depth": 3, "min_samples_split": 10, "n_trees": 4},
    "gradient_boosting": {"n_stages": 5, "learning_rate": 0.1},
    "quantile_tree": {"lam": 0.1, "max_depth": 2, "min_samples_split": 20},
}


class TestMalformedTreeFile:
    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        """Each model's file as a parsed document, and a prediction input."""
        ds = generate_synthetic(SyntheticSpec(n_projects=150, seed=3))
        docs = {
            name: json.loads(model_to_json(fit_model(name, ds, params, seed=4)))
            for name, params in MALFORMED_PARAMS.items()
        }
        inp = tmp_path_factory.mktemp("malformed") / "in.csv"
        write_dataset_csv(generate_synthetic(SyntheticSpec(n_projects=20, seed=5)), inp)
        return docs, inp

    def write_edited(self, tmp_path, files, name, edit):
        docs, _ = files
        doc = copy.deepcopy(docs[name])
        edit(doc["payload"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    @pytest.mark.parametrize("case", MALFORMED)
    def test_exit_2_at_load_naming_the_payload(self, tmp_path, files, capsys, case):
        name, key, edit, says = MALFORMED[case]
        model = self.write_edited(tmp_path, files, name, edit)
        out = tmp_path / "out.csv"
        args = ["predict", "--model", str(model), "--input", str(files[1]), "--output", str(out)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"error in stage 'load-model': model file payload {key!r}:" in err and says in err
        assert not out.exists()

    def test_cyclic_tree_fails_within_seconds(self, tmp_path, files):
        # a walk of this tree never reaches a leaf, so it must not get past loading
        model = self.write_edited(tmp_path, files, "decision_tree", _cycle)
        out = tmp_path / "out.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "partqr.cli", "predict", "--model", str(model),
             "--input", str(files[1]), "--output", str(out)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - start < 20
        assert done.returncode == 2, done.stderr
        assert "error in stage 'load-model': model file payload 'tree':" in done.stderr
        assert not out.exists()


ADJACENT_GRIDS = {
    "decision_tree": {"max_depth": [6], "min_samples_split": [2]},
    "random_forest": {"max_depth": [8], "min_samples_split": [2], "n_trees": [5]},
    "qrf": {"max_depth": [8], "min_samples_split": [2], "n_trees": [5]},
    "gradient_boosting": {
        "n_stages": [5], "learning_rate": [0.1], "max_depth": [6], "min_samples_split": [2],
    },
    "quantile_tree": {"lam": [0.1], "max_depth": [6], "min_samples_split": [2]},
}


@pytest.mark.parametrize("name", ADJACENT_GRIDS)
def test_adjacent_double_predictor_trains_and_predicts(tmp_path, capsys, name):
    # start_day takes eight adjacent doubles, 1e15 + k/8: a midpoint between
    # two of them rounds onto the upper one, which must not empty a leaf
    lines = ["site,start_day,target_days"]
    for i in range(400):
        k = i % 8
        lines.append(f"{'ab'[i // 8 % 2]},{1e15 + k / 8!r},{10 * k + (i * 37 % 11) / 10}")
    data = tmp_path / "adjacent.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = write_config(
        tmp_path, data, model={"name": name, "grid": ADJACENT_GRIDS[name]}, cv={"folds": 3, "seed": 2}
    )
    assert main(["train", "--config", str(config)]) == 0, capsys.readouterr().err
    out = tmp_path / "out.csv"
    args = ["predict", "--model", str(tmp_path / "model.json"), "--input", str(data)]
    assert main(args + ["--output", str(out)]) == 0, capsys.readouterr().err
    forecasts = np.loadtxt(out, delimiter=",", skiprows=1)
    assert forecasts.shape == (400, 3) and np.isfinite(forecasts).all()


RANGE_GRIDS = {
    "decision_tree": {"max_depth": [2]},
    "random_forest": {"max_depth": [2], "n_trees": [3]},
    "gradient_boosting": {"n_stages": [5], "learning_rate": [0.1]},
}


class TestInputRange:
    """Numeric cells hold |value| <= 1e150: training and prediction accept
    the bound, and a cell beyond it exits 2 at ingest, naming its cell."""

    @staticmethod
    def write(path, cells: dict[int, tuple[str, str]] | None = None):
        """A 120-row generic CSV; `cells` maps a record to its (x, target)."""
        rng = np.random.default_rng(9)
        lines = ["site,x,target_days"]
        for i, x in enumerate(rng.uniform(0, 8, 120)):
            x, target = (cells or {}).get(i, (repr(float(x)), repr(float(2 * x + rng.normal()))))
            lines.append(f"{'ab'[i % 2]},{x},{target}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def train(self, tmp_path, name, data):
        config = write_config(
            tmp_path, data, model={"name": name, "grid": RANGE_GRIDS[name]}, cv={"folds": 3, "seed": 1}
        )
        return main(["train", "--config", str(config)])

    @pytest.mark.parametrize("name", RANGE_GRIDS)
    def test_bound_trains_and_predicts(self, tmp_path, capsys, name):
        data = self.write(tmp_path / "edge.csv", {7: ("1.5", "1e150"), 9: ("-1e150", "3.0")})
        assert self.train(tmp_path, name, data) == 0, capsys.readouterr().err
        out = tmp_path / "out.csv"
        args = ["predict", "--model", str(tmp_path / "model.json"), "--input", str(data)]
        assert main(args + ["--output", str(out)]) == 0, capsys.readouterr().err
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()

    @pytest.mark.parametrize("name", RANGE_GRIDS)
    @pytest.mark.parametrize("column, cell", [("target_days", ("1.5", "1e200")), ("x", ("-1e200", "3.0"))])
    def test_beyond_the_bound_exits_2_at_ingest(self, tmp_path, capsys, name, column, cell):
        data = self.write(tmp_path / "far.csv", {7: cell})
        assert self.train(tmp_path, name, data) == 2
        value = cell[1] if column == "target_days" else cell[0]
        err = capsys.readouterr().err
        assert f"'ingest': {data}:9: column '{column}': value '{value}' is out of range" in err
        assert not (tmp_path / "model.json").exists()

    def test_predict_refuses_a_predictor_beyond_the_bound(self, tmp_path, capsys):
        assert self.train(tmp_path, "decision_tree", self.write(tmp_path / "train.csv")) == 0
        data = self.write(tmp_path / "in.csv", {3: ("1e200", "")})
        out = tmp_path / "out.csv"
        args = ["predict", "--model", str(tmp_path / "model.json"), "--input", str(data)]
        assert main(args + ["--output", str(out)]) == 2
        assert f"{data}:5: column 'x': value '1e200' is out of range" in capsys.readouterr().err
        assert not out.exists()


COMPOSITE_PARAMS = {
    "quantile_tree": {"lam": 0.1, "max_depth": 2, "min_samples_split": 20},
    "piecewise_qr": {"lam": 0.1, "n_clusters": 2},
    "piecewise_rr": {"lam": 0.1, "n_clusters": 2},
    "nn_qr": {"lam": 0.1, "n_neighbors": 25},
}


class TestEncodedLayout:
    """A composite's widths come from the layout its schema and encoding
    imply; stored tables that disagree must not load."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        ds = generate_synthetic(SyntheticSpec(n_projects=150, seed=3))
        docs = {
            name: json.loads(model_to_json(fit_model(name, ds, params, seed=4)))
            for name, params in COMPOSITE_PARAMS.items()
        }
        inp = tmp_path_factory.mktemp("layout") / "in.csv"
        write_dataset_csv(generate_synthetic(SyntheticSpec(n_projects=20, seed=5)), inp)
        return docs, inp

    def predict_edited(self, tmp_path, files, name, edit):
        docs, inp = files
        doc = copy.deepcopy(docs[name])
        edit(doc)
        model, out = tmp_path / "model.json", tmp_path / "out.csv"
        model.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)])
        return code, out

    def test_short_train_values_exit_2_at_load(self, tmp_path, files, capsys):
        def short_rows(doc):
            for row in doc["payload"]["composite"]["train_values"]:
                row.pop()

        code, out = self.predict_edited(tmp_path, files, "nn_qr", short_rows)
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'load-model': model file payload 'composite':" in err
        assert "'train_values'" in err
        assert not out.exists()

    def test_short_train_y_exit_2_at_load(self, tmp_path, files, capsys):
        # a target fewer would pair the later training rows with other targets
        code, out = self.predict_edited(
            tmp_path, files, "nn_qr", lambda doc: doc["payload"]["composite"]["train_y"].pop(3)
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "error in stage 'load-model': model file payload 'composite': 'train_y'" in err
        assert not out.exists()

    @pytest.mark.parametrize("name", COMPOSITE_PARAMS)
    def test_unedited_file_predicts(self, tmp_path, files, name):
        code, out = self.predict_edited(tmp_path, files, name, lambda doc: None)
        assert code == 0 and out.exists()


EMPTIED_ENCODING_PARAMS = {
    "quantile_tree": {"lam": 0.1, "max_depth": 2},
    "quantile": {"lam": 0.1},
    "decision_tree": {"max_depth": 2},
}


@pytest.mark.parametrize("name", EMPTIED_ENCODING_PARAMS)
def test_emptied_encoding_exit_2_at_load(tmp_path, capsys, name):
    # the schema has a categorical predictor that the encoding must list
    ds = generate_synthetic(SyntheticSpec(n_projects=60, seed=3))
    doc = json.loads(model_to_json(fit_model(name, ds, EMPTIED_ENCODING_PARAMS[name])))
    doc["encoding"] = []
    model, inp, out = tmp_path / "model.json", tmp_path / "in.csv", tmp_path / "out.csv"
    model.write_text(json.dumps(doc), encoding="utf-8")
    write_dataset_csv(ds.subset(range(5)), inp)
    assert main(["predict", "--model", str(model), "--input", str(inp), "--output", str(out)]) == 2
    assert "error in stage 'load-model': model file key 'encoding'" in capsys.readouterr().err
    assert not out.exists()


class TestBenchmarkCommand:
    def test_three_model_report(self, tmp_path, synth_csv, capsys):
        config = write_config(
            tmp_path,
            synth_csv,
            models=["ridge", "decision_tree", "gradient_boosting"],
            model={"name": "ridge", "grid": {}},
            output={
                "report_json": str(tmp_path / "report.json"),
                "report_text": str(tmp_path / "report.txt"),
                "bounds_dir": str(tmp_path / "bounds"),
            },
        )
        # shrink default grids via dedicated config for runtime
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["models"] = ["ridge", "decision_tree"]
        config.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["benchmark", "--config", str(config)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert [m["model"] for m in report["models"]] == [
            "Ridge Regressor",
            "Decision Tree Regressor",
        ]
        assert (tmp_path / "report.txt").exists()

    def test_single_model_grid_and_bounds(self, tmp_path, synth_csv):
        config = write_config(
            tmp_path,
            synth_csv,
            models=["quantile_tree"],
            output={
                "report_json": str(tmp_path / "report.json"),
                "bounds_dir": str(tmp_path / "bounds"),
            },
        )
        assert main(["benchmark", "--config", str(config)]) == 0
        bounds = (tmp_path / "bounds" / "bounds_quantile_tree.csv").read_text(encoding="utf-8")
        lines = bounds.strip().splitlines()
        assert lines[0] == "lower,actual,upper"
        assert len(lines) == 151  # one per test row, pooled over folds

    def test_deterministic_reports(self, tmp_path, synth_csv):
        config = write_config(
            tmp_path,
            synth_csv,
            models=["quantile_tree"],
            output={"report_json": str(tmp_path / "report.json")},
        )
        main(["benchmark", "--config", str(config)])
        first = (tmp_path / "report.json").read_bytes()
        main(["benchmark", "--config", str(config)])
        assert (tmp_path / "report.json").read_bytes() == first

    def test_unknown_model_exit_2_before_ingest(self, tmp_path, capsys):
        config = write_config(tmp_path, tmp_path / "missing.csv", models=["ridge", "nope"])
        assert main(["benchmark", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "'config'" in err and "'nope'" in err
        assert "missing.csv" not in err


class TestGwaBenchmark:
    def write_traces(self, tmp_path):
        header = (
            "Timestamp [ms];CPU cores;CPU capacity provisioned [MHZ];"
            "CPU usage [MHZ];Memory capacity provisioned [KB];Memory usage [KB]"
        )
        rng = np.random.default_rng(3)
        t0 = 1_600_000_000_000
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        lengths = {"vm_a.csv": 40, "vm_b.csv": 25}
        for name, length in lengths.items():
            lines = [header]
            usage = 100.0
            for i in range(length):
                usage = 0.8 * usage + rng.normal(0, 5) + 25
                lines.append(
                    f"{t0 + i * 300000};4;2600;{usage:.3f};8000000;{4000000 + i}"
                )
            (trace_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        return trace_dir, lengths

    def test_lag_pipeline_row_count(self, tmp_path):
        trace_dir, lengths = self.write_traces(tmp_path)
        config = {
            "data": {"path": str(trace_dir), "format": "gwa-trace"},
            "pipeline": {"lag_count": 3},
            "models": ["decision_tree"],
            "model": {"name": "decision_tree", "grid": {"max_depth": [2], "min_samples_split": [5]}},
            "cv": {"folds": 3, "seed": 1},
            "output": {"report_json": str(tmp_path / "report.json")},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["benchmark", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert report["n_rows"] == sum(n - 3 for n in lengths.values())
        assert report["weight_units"] == "MHZ"

    def test_empty_trace_exit_2_names_the_file(self, tmp_path, capsys):
        trace_dir, _ = self.write_traces(tmp_path)
        (trace_dir / "vm_c.csv").write_text("", encoding="utf-8")
        config = {
            "data": {"path": str(trace_dir), "format": "gwa-trace"},
            "models": ["ridge"],
            "model": {"name": "ridge", "grid": {"lam": [0.1]}},
            "cv": {"folds": 3, "seed": 1},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["benchmark", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error in stage 'ingest': {trace_dir / 'vm_c.csv'}: empty file" in err


# a synth spec that sets every field of SyntheticSpec, none to its default
FULL_SPEC = {
    "n_projects": 30,
    "seed": 7,
    "categories": ["north", "south"],
    "category_probs": [0.25, 0.75],
    "category_effects": [1.5, -2.0],
    "noise_scales": [0.0, 3.0],
    "base_durations": [5.0, 9.0, 2.5],
    "cascade_weights": [[], [0.7], [0.1, 0.2]],
    "target_coeffs": [1.0, 0.5, 2.0],
    "target_intercept": -3.0,
    "contamination": 0.2,
    "tail_scale": 12.0,
}


class TestSynthCommand:
    def test_writes_rows_and_sidecar(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 100, "seed": 4}), encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 101
        sidecar = json.loads((out.parent / "s.csv.truth.json").read_text(encoding="utf-8"))
        assert sidecar["seed"] == 4

    def test_seeded_determinism(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 50, "seed": 9}), encoding="utf-8")
        out = tmp_path / "s.csv"
        main(["synth", "--spec", str(spec), "--output", str(out)])
        first = out.read_bytes()
        main(["synth", "--spec", str(spec), "--output", str(out)])
        assert out.read_bytes() == first

    @pytest.mark.parametrize("doc", [{"n_projects": 40, "seed": 4}, FULL_SPEC], ids=["defaults", "every-field"])
    def test_sidecar_as_spec_writes_the_same_bytes(self, tmp_path, doc):
        assert set(FULL_SPEC) == {f.name for f in dataclasses.fields(SyntheticSpec)}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(doc), encoding="utf-8")
        first, again = tmp_path / "first.csv", tmp_path / "again.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(first)]) == 0
        sidecar = Path(f"{first}.truth.json")
        assert json.loads(sidecar.read_text(encoding="utf-8"))["category_probs"] == doc.get("category_probs")
        assert main(["synth", "--spec", str(sidecar), "--output", str(again)]) == 0
        assert again.read_bytes() == first.read_bytes()
        assert Path(f"{again}.truth.json").read_bytes() == sidecar.read_bytes()

    def test_sidecar_reproduces_true_medians(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_projects": 80, "seed": 6, "contamination": 0.05}), encoding="utf-8"
        )
        out = tmp_path / "s.csv"
        main(["synth", "--spec", str(spec_path), "--output", str(out)])
        side = json.loads((tmp_path / "s.csv.truth.json").read_text(encoding="utf-8"))

        from partqr.data import dataset_from_csv

        spec = spec_from_json(side)  # the rule `partqr synth` reads a spec by
        ds = dataset_from_csv(out, target="target_days", overrides={"site_category": "categorical"})
        want = synthetic_true_quantile_rows(spec, ds, 0.5)

        # independent recomputation of the linear form from sidecar values
        for i, row in enumerate(ds.rows):
            c = side["categories"].index(row[0])
            mu = side["target_intercept"] + side["category_effects"][c]
            mu += sum(g * row[1 + j] for j, g in enumerate(side["target_coeffs"]))
            mu += mixture_quantile(
                0.5, side["noise_scales"][c], side["contamination"], side["tail_scale"]
            )
            assert mu == pytest.approx(want[i], abs=1e-9)

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 0, "seed": 1}), encoding="utf-8")
        assert main(["synth", "--spec", str(spec)]) == 2

    @pytest.mark.parametrize(
        "key, value",
        [
            ("categories", 5),
            ("categories", ["a", "a", "b"]),
            ("cascade_weights", [1, 2]),
            ("cascade_weights", [[], [0.4], [0.2, "x"], [0.1, 0.0, 0.5]]),
            ("n_projects", 1.5),
            ("n_projects", True),
            ("seed", "x"),
            ("seed", -1),
            ("seed", False),
            ("noise_scales", [-1, 2, 3]),
            ("noise_scales", [1, 2]),
            ("category_effects", [0.0, float("nan"), 1.0]),
            ("base_durations", [12.0, float("inf"), 25.0, 15.0]),
            ("target_coeffs", [0.6, None, 0.5, 0.8]),
            ("category_probs", [-0.5, 1.0, 0.5]),
            ("category_probs", [0.2, 0.2, 0.2]),
            ("category_probs", [0, 0, 0]),
            ("tail_scale", 0),
            ("tail_scale", -40.0),
            ("target_intercept", "8"),
            ("contamination", "0.1"),
        ],
    )
    def test_invalid_field_exit_2_at_spec_naming_it(self, tmp_path, capsys, key, value):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 10, "seed": 1, key: value}), encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error in stage 'spec': invalid synthetic spec: {key} " in err
        assert not out.exists()

    def test_probabilities_that_sum_to_1_keep_their_bytes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 40, "seed": 5, "category_probs": [0.5, 0.5, 0.0]}),
                        encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 0
        digests = [hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in (out, Path(f"{out}.truth.json"))]
        assert digests == [
            "a6bd85dabc3ce4febdb27f64dde60bf00d4183371ac32fe350395c00f513a399",
            "db2aa578f30d63335bf09a0d614e1fb4735d8e4e87b034d37577163b49afdba9",
        ]

    def test_spec_that_is_no_object_exit_2(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text("[1, 2]", encoding="utf-8")
        assert main(["synth", "--spec", str(spec)]) == 2
        assert "a synthetic spec must be a JSON object" in capsys.readouterr().err


class TestParserBuiltOnce:
    """`build_parser` runs once per process; each `main` call still parses
    afresh and runs the command function bound in `partqr.cli` at that call."""

    def test_calls_in_a_row_are_fresh(self, tmp_path, capsys, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 30, "seed": 4}), encoding="utf-8")
        out = tmp_path / "s.csv"
        assert main(["synth", "--spec", str(spec), "--output", str(out)]) == 0
        first = out.read_bytes()
        model = tmp_path / "model.json"
        save_model(model, fit_model("ridge", generate_synthetic(SyntheticSpec(40, seed=5)), {"lam": 0.1}))
        assert main(["inspect", "--model", str(model)]) == 0
        assert "model: " in capsys.readouterr().out
        # no --output this time: the default, not the last call's path
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        assert main(["synth", "--spec", str(spec)]) == 0
        assert "written to synthetic.csv" in capsys.readouterr().out
        assert (tmp_path / "cwd" / "synthetic.csv").read_bytes() == first
        with pytest.raises(SystemExit) as exc:
            main(["predict", "--model", str(model)])
        assert exc.value.code == 2
        assert "the following arguments are required: --input" in capsys.readouterr().err
        assert main(["inspect", "--model", str(model)]) == 0

    def test_rebound_command_runs(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_projects": 0, "seed": 1}), encoding="utf-8")
        assert main(["synth", "--spec", str(spec)]) == 2  # the parser is built by now
        seen = []
        monkeypatch.setattr(cli, "cmd_synth", lambda args: seen.append(args.spec) or 0)
        assert main(["synth", "--spec", str(spec)]) == 0
        assert seen == [str(spec)]

    def test_every_command_has_its_function(self):
        for name in cli.COMMANDS:
            assert callable(getattr(cli, f"cmd_{name}")), name


class TestMilestoneFlow:
    def write_inputs(self, tmp_path):
        lines = ["project_id,site_id,milestone,phase,actual_date,state,zip"]
        base = 737000
        import datetime

        rng = np.random.default_rng(0)
        for p in range(40):
            start = datetime.date.fromordinal(base + p * 3)
            mid = start + datetime.timedelta(days=int(rng.integers(5, 15)))
            end = mid + datetime.timedelta(days=int(rng.integers(10, 30)))
            state = "TX" if p % 2 else "WA"
            for name, d in (("start", start), ("mid", mid), ("end", end)):
                lines.append(f"p{p},s{p},{name},build,{d.isoformat()},{state},75201")
        data = tmp_path / "milestones.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        climate = tmp_path / "climate.csv"
        climate.write_text("region,climate\nTX,hot\nWA,marine\n", encoding="utf-8")
        return data, climate

    def test_train_on_milestone_csv(self, tmp_path, capsys):
        data, climate = self.write_inputs(tmp_path)
        config = {
            "data": {"path": str(data), "format": "milestone-csv"},
            "pipeline": {
                "source_milestone": "start",
                "target_milestone": "end",
                "intermediate_milestones": ["mid"],
                "climate_table": str(climate),
                "tail_caps": {"target_days": 500.0},
            },
            "model": {
                "name": "quantile_tree",
                "grid": {"lam": [0.1], "max_depth": [1], "min_samples_split": [5]},
            },
            "cv": {"folds": 4, "seed": 2},
            "output": {"model_path": str(tmp_path / "m.json")},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        # the milestone rows carry no city, market, region or coordinates
        with pytest.warns(UserWarning, match="entirely missing") as record:
            assert main(["train", "--config", str(path)]) == 0
        assert {str(w.message) for w in record} == {
            f"column {name!r} is entirely missing; dropping it"
            for name in ("city", "latitude", "longitude", "market", "region")
        }
        fitted = load_model(tmp_path / "m.json")
        schema = fitted.model.schema
        assert schema.target == "target_days"
        assert "climate" in [n for n, _ in schema.columns]

    def test_non_finite_coordinate_exit_2(self, tmp_path, capsys):
        data, _ = self.write_inputs(tmp_path)
        lines = data.read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",latitude"] + [line + ",47.6" for line in lines[1:]]
        lines[4] = lines[4].replace(",47.6", ",nan")
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = {
            "data": {"path": str(data), "format": "milestone-csv"},
            "pipeline": {"source_milestone": "start", "target_milestone": "end"},
            "model": {"name": "ridge", "grid": {"lam": [0.1]}},
            "cv": {"folds": 4, "seed": 2},
            "output": {"model_path": str(tmp_path / "m.json")},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["train", "--config", str(path)]) == 2
        assert f"{data}:5: column 'latitude': non-finite value 'nan'" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestPointModelPredict:
    def test_ridge_outputs_degenerate_interval(self, tmp_path, synth_csv):
        config = write_config(tmp_path, synth_csv, model={"name": "ridge", "grid": {"lam": [0.1]}})
        main(["train", "--config", str(config)])
        inp = tmp_path / "in.csv"
        inp.write_text(
            "site_category,step1_days,step2_days,step3_days,step4_days\nmetro,10,20,30,15\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"), "--input", str(inp), "--output", str(out)]) == 0
        lo, med, hi = map(float, out.read_text(encoding="utf-8").strip().splitlines()[1].split(","))
        assert lo == med == hi


class TestInspect:
    def test_prints_structure(self, tmp_path, synth_csv, capsys):
        config = write_config(tmp_path, synth_csv)
        main(["train", "--config", str(config)])
        capsys.readouterr()
        assert main(["inspect", "--model", str(tmp_path / "model.json")]) == 0
        out = capsys.readouterr().out
        assert "Quantile Tree" in out
        assert "parameter count:" in out
        assert "partitions:" in out

    @pytest.mark.parametrize(
        "name, display, params",
        [
            ("decision_tree", "Decision Tree Regressor", {"max_depth": 2, "min_samples_split": 10}),
            ("qrf", "QRF", {"max_depth": 3, "min_samples_split": 10, "n_trees": 4}),
        ],
    )
    def test_baseline_prints_no_structure_line(self, tmp_path, capsys, name, display, params):
        fit = fit_model(name, generate_synthetic(SyntheticSpec(n_projects=60, seed=3)), params, seed=1)
        path = tmp_path / "model.json"
        save_model(path, fit)
        count = fit.parameter_count()
        assert main(["inspect", "--model", str(path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"model: {display} ({name})",
            "target: target_days [days]",
            f"params: {json.dumps(params, sort_keys=True)}",
            f"parameter count: {'NA' if count is None else count}",
        ]

    def test_payload_mismatch_exit_2(self, tmp_path, synth_csv, capsys):
        grid = {"max_depth": [2], "min_samples_split": [10]}
        config = write_config(tmp_path, synth_csv, model={"name": "decision_tree", "grid": grid})
        assert main(["train", "--config", str(config)]) == 0
        path = tmp_path / "model.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["model_name"] == "decision_tree"
        doc["model_name"] = "ridge"
        path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'load-model': model 'ridge' needs a 'composite' payload" in err
