"""The benchmark's tracer wraps package functions by name.

perfbench/tracer.py lists them in TARGETS; a rename or a move that would
leave the traced benchmark without a target fails here in well under a second.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets() -> tuple:
    """TARGETS read from the tracer's source without importing or running it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


def test_every_tracer_target_exists():
    targets = _targets()
    assert targets
    missing = []
    for module_name, qualname, _, _ in targets:
        module = importlib.import_module(f"partqr.{module_name}")
        if "." in qualname:
            cls_name, method = qualname.split(".")
            found = callable(vars(getattr(module, cls_name, object)).get(method))
        else:
            found = callable(getattr(module, qualname, None))
        if not found:
            missing.append(f"partqr.{module_name}.{qualname}")
    assert not missing, f"traced benchmark targets missing: {missing}"


# The benchmark's workloads drive the program through a config file and a
# library call; a stricter config check or a changed signature must fail here,
# not silently inside a benchmark run.
WORKLOADS = TRACER.with_name("workloads.py")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_qtree_grid_config_loads(tmp_path):
    from partqr.config import load_config

    workloads = _workloads()
    workloads.QtreeGrid(str(tmp_path), seed=301).setup(workloads.Ledger())
    cfg = load_config(tmp_path / "config.json")
    assert cfg.model.name == "quantile_tree"


def test_ensemble_grid_call_binds_to_benchmark():
    from partqr.evaluation import SyntheticSpec, benchmark, generate_synthetic

    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    (call,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "benchmark"
    ]
    keywords = {kw.arg: kw.value for kw in call.keywords}
    assert set(keywords) == {"grids", "k", "seed", "threads"}
    inspect.signature(benchmark).bind(*call.args, **keywords)
    threads = ast.literal_eval(keywords["threads"])
    dataset = generate_synthetic(SyntheticSpec(n_projects=40, seed=1))
    report = benchmark(dataset, ["ridge"], grids={"ridge": {"lam": [0.1]}}, k=2, seed=1, threads=threads)
    assert [m.name for m in report.models] == ["ridge"]


def test_workload_hyperparameters_are_ones_the_models_read():
    """A grid name a model does not read, or a value of a type it refuses,
    fails its search, so a registry edit that drops a name or tightens a type
    would make every operation of a workload fail."""
    from partqr.models import MODELS, check_hyperparams

    workloads = _workloads()
    used = {"quantile_tree": [workloads.QTREE_GRID]}
    for source in (workloads.ENSEMBLE_GRIDS, workloads.PREDICT_PARAMS):
        for name, params in source.items():
            used.setdefault(name, []).append(params)
    unknown = [
        f"{name}.{key}"
        for name, all_params in used.items()
        for params in all_params
        for key in params
        if key not in MODELS[name].hyperparams
    ]
    assert not unknown, f"benchmark workloads use hyperparameters no model reads: {unknown}"
    # a grid lists values; a predict-batch entry is one value per name
    grids = {"quantile_tree": workloads.QTREE_GRID, **workloads.ENSEMBLE_GRIDS}
    for name, grid in grids.items():
        for key, values in grid.items():
            for value in values:
                check_hyperparams(name, {key: value}, "in the workload grid of")
    for name, params in workloads.PREDICT_PARAMS.items():
        check_hyperparams(name, params, "in the predict-batch params of")


def test_predict_batch_params_fit(tmp_path):
    """`predict-batch` fits its models with `fit_model`, which refuses a name
    the model does not read, saves them and predicts from the loaded files:
    a model file format change that breaks one of them fails here."""
    from partqr.evaluation import SyntheticSpec, generate_synthetic
    from partqr.models import fit_model
    from partqr.serialize import load_model, save_model

    train = generate_synthetic(SyntheticSpec(n_projects=60, seed=1))
    rows = list(generate_synthetic(SyntheticSpec(n_projects=20, seed=2)).rows)
    for name, params in _workloads().PREDICT_PARAMS.items():
        fit = fit_model(name, train, params, seed=1)
        assert fit.name == name
        save_model(tmp_path / f"{name}.model.json", fit)
        loaded = load_model(tmp_path / f"{name}.model.json")
        assert loaded.predict_point(rows).tobytes() == fit.predict_point(rows).tobytes()
        want, got = fit.predict_intervals(rows), loaded.predict_intervals(rows)
        assert got is want is None or got.tobytes() == want.tobytes()
