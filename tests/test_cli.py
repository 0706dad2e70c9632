import json

import numpy as np
import pytest

from partqr.cli import main, write_dataset_csv
from partqr.evaluation import SyntheticSpec, generate_synthetic, mixture_quantile
from partqr.serialize import load_model


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
        from partqr.composite import predict_interval

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
            iv = predict_interval(fitted.model, row)
            assert (lo, med, hi) == (iv.lower, iv.median, iv.upper)

    def test_schema_mismatch_lists_missing(self, tmp_path, synth_csv, capsys):
        model = self.make_model(tmp_path, synth_csv)
        inp = tmp_path / "in.csv"
        inp.write_text("site_category\nmetro\n", encoding="utf-8")
        assert main(["predict", "--model", str(model), "--input", str(inp)]) == 2
        err = capsys.readouterr().err
        assert "step1_days" in err

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

    def test_sidecar_reproduces_true_medians(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"n_projects": 80, "seed": 6, "contamination": 0.05}), encoding="utf-8"
        )
        out = tmp_path / "s.csv"
        main(["synth", "--spec", str(spec_path), "--output", str(out)])
        side = json.loads((tmp_path / "s.csv.truth.json").read_text(encoding="utf-8"))

        from partqr.evaluation import SyntheticSpec, synthetic_true_quantile_rows
        from partqr.data import dataset_from_csv

        spec = SyntheticSpec(
            n_projects=side["n_projects"],
            seed=side["seed"],
            categories=tuple(side["categories"]),
            category_effects=tuple(side["category_effects"]),
            noise_scales=tuple(side["noise_scales"]),
            base_durations=tuple(side["base_durations"]),
            cascade_weights=tuple(tuple(r) for r in side["cascade_weights"]),
            target_coeffs=tuple(side["target_coeffs"]),
            target_intercept=side["target_intercept"],
            contamination=side["contamination"],
            tail_scale=side["tail_scale"],
        )
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
