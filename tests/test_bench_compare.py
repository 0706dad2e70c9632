"""`scripts/bench_compare.py` on two hand-made BENCH documents."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_compare.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench(tag, wall, rows=None, traced=()):
    """A BENCH document of one workload: per-seed `wall_ref`, `rows_s`
    (higher is better) unless `rows` is None, and traced seeds of
    (`build_cart.s`, `kernel_s`)."""
    seeds = {str(301 + i): {"metrics": {"wall_ref": w}} for i, w in enumerate(wall)}
    for i, r in enumerate(rows or ()):
        seeds[str(301 + i)]["metrics"]["rows_s"] = r
    doc = {"tag": tag, "workloads": {"grid": {"seeds": seeds}}}
    if traced:
        doc["workloads"]["grid"]["traced"] = {"seeds": {
            str(301 + i): {"metrics": {"partition.build_cart.s": s, "kernel_s": k, "route.s": 0.0}}
            for i, (s, k) in enumerate(traced)
        }}
    return doc


PARENT_WALL = [30.0, 31.0, 30.5, 29.5, 30.2, 30.8, 29.9, 30.1, 30.6, 30.3]
BETTER = {"wall_ref": "lower", "rows_s": "higher"}


def test_medians_quartiles_and_ratio():
    script = load_script()
    head_wall = [w - 3.0 for w in PARENT_WALL]
    got = script.compare(bench("a", PARENT_WALL, PARENT_WALL), bench("b", head_wall, PARENT_WALL), BETTER)
    wall = got["grid"]["wall_ref"]
    q1, _, q3 = statistics.quantiles(PARENT_WALL, n=4)
    assert wall["base"] == (statistics.median(PARENT_WALL), q1, q3)
    assert wall["head"] == pytest.approx((statistics.median(PARENT_WALL) - 3.0, q1 - 3.0, q3 - 3.0))
    assert wall["ratio"] == pytest.approx((statistics.median(PARENT_WALL) - 3.0) / statistics.median(PARENT_WALL))
    assert (wall["pairs"], wall["won"], wall["lost"], wall["gain"]) == (10, 10, 0, True)
    assert wall["base_iqr"] == pytest.approx(q3 - q1)
    # equal runs: every pair a tie, won by neither side
    rows = got["grid"]["rows_s"]
    assert (rows["won"], rows["lost"], rows["gain"], rows["ratio"]) == (0, 0, False, 1.0)


def test_gain_needs_nine_of_ten_pairs_and_more_than_the_parent_iqr():
    script = load_script()
    parent = bench("a", PARENT_WALL, PARENT_WALL)
    iqr = script.compare(parent, parent, BETTER)["grid"]["wall_ref"]["base_iqr"]
    # eight of ten pairs won by far: no gain
    wall = [w - 3.0 for w in PARENT_WALL[:8]] + [w + 1.0 for w in PARENT_WALL[8:]]
    c = script.compare(parent, bench("b", wall, PARENT_WALL), BETTER)["grid"]["wall_ref"]
    assert (c["won"], c["lost"], c["gain"]) == (8, 2, False)
    # every pair won, by less than the parent's IQR: no gain
    wall = [w - iqr / 2 for w in PARENT_WALL]
    c = script.compare(parent, bench("b", wall, PARENT_WALL), BETTER)["grid"]["wall_ref"]
    assert (c["won"], c["gain"]) == (10, False)
    # nine won and one tie, by more than the IQR: a gain
    wall = [w - 2 * iqr for w in PARENT_WALL[:9]] + PARENT_WALL[9:]
    c = script.compare(parent, bench("b", wall, PARENT_WALL), BETTER)["grid"]["wall_ref"]
    assert (c["won"], c["lost"], c["gain"]) == (9, 0, True)


def test_higher_is_better_where_the_benchmark_says_so():
    script = load_script()
    rows = [100.0 + i for i in range(10)]
    faster = [r * 1.5 for r in rows]
    base, head = bench("a", PARENT_WALL, rows), bench("b", PARENT_WALL, faster)
    c = script.compare(base, head, BETTER)
    assert (c["grid"]["rows_s"]["won"], c["grid"]["rows_s"]["gain"]) == (10, True)
    c = script.compare(base, head, {**BETTER, "rows_s": "lower"})
    assert (c["grid"]["rows_s"]["lost"], c["grid"]["rows_s"]["gain"]) == (10, False)


def test_a_metric_without_a_direction_is_an_error():
    script = load_script()
    doc = bench("a", PARENT_WALL, PARENT_WALL)
    with pytest.raises(KeyError, match="rows_s"):
        script.compare(doc, doc, {"wall_ref": "lower"})


def test_pairs_only_shared_seeds():
    script = load_script()
    head = bench("b", [w - 3.0 for w in PARENT_WALL[:4]], PARENT_WALL[:4])
    c = script.compare(bench("a", PARENT_WALL, PARENT_WALL), head, BETTER)["grid"]["wall_ref"]
    assert c["pairs"] == 4 and c["base"][0] == statistics.median(PARENT_WALL[:4])


def test_traced_ratios_are_per_seed_then_median():
    script = load_script()
    doc = bench("a", PARENT_WALL, PARENT_WALL, traced=[(1.0, 0.04), (0.9, 0.03), (1.2, 0.05)])
    got = script.traced_ratios(doc, "grid")
    assert got["partition.build_cart.s"] == statistics.median([1.0 / 0.04, 0.9 / 0.03, 1.2 / 0.05])
    assert got["route.s"] == 0.0


def test_report_prints_every_metric_and_the_traced_layers():
    script = load_script()
    parent = bench("pr-parent", PARENT_WALL, PARENT_WALL, traced=[(1.0, 0.04)] * 3)
    change = bench("pr", [w - 3.0 for w in PARENT_WALL], PARENT_WALL, traced=[(0.8, 0.04)] * 3)
    out = script.report(parent, change, BETTER)
    assert out[0].startswith("pr-parent -> pr")
    assert out[1] == "src lines: n/a -> n/a"
    assert script.report({**parent, "src_lines": 4930}, {**change, "src_lines": 4890}, BETTER)[1] == (
        "src lines: 4930 -> 4890"
    )
    (wall,) = [line for line in out if line.strip().startswith("wall_ref:")]
    assert "won 10/10" in wall and "gain yes" in wall and "ratio 0.901" in wall
    (rows,) = [line for line in out if line.strip().startswith("rows_s:")]
    assert "won 0/10" in rows and "gain no" in rows
    (cart,) = [line for line in out if "partition.build_cart.s" in line]
    assert cart.split() == [
        "partition.build_cart.s:", "25.0000", "->", "20.0000", "ratio", "0.800",
        "min-max", "25.0000-25.0000", "->", "20.0000-20.0000",
    ]
    assert not [line for line in out if "route.s" in line]  # zero on both sides


def test_traced_layers_print_both_min_max_and_mark_overlap():
    """A median ratio of 0.75 on a layer whose seeds spread over each other
    is marked `inside spread`; one whose ranges are apart is not."""
    script = load_script()
    parent = bench("pr-parent", PARENT_WALL, traced=[(1.0, 0.04), (1.6, 0.04), (1.2, 0.04)])
    change = bench("pr", PARENT_WALL, traced=[(0.9, 0.04), (1.1, 0.04), (0.8, 0.04)])
    assert script.traced_ranges(parent, "grid")["partition.build_cart.s"] == (1.0 / 0.04, 1.6 / 0.04)
    (cart,) = [line for line in script.report(parent, change, BETTER) if "build_cart" in line]
    assert cart.split() == [
        "partition.build_cart.s:", "30.0000", "->", "22.5000", "ratio", "0.750",
        "min-max", "25.0000-40.0000", "->", "20.0000-27.5000", "inside", "spread",
    ]
    apart = bench("pr", PARENT_WALL, traced=[(0.9, 0.04), (0.95, 0.04), (0.8, 0.04)])
    (cart,) = [line for line in script.report(parent, apart, BETTER) if "build_cart" in line]
    assert cart.split()[-4:] == ["min-max", "25.0000-40.0000", "->", "20.0000-23.7500"]


def test_main_reads_the_repository_benchmark(tmp_path, capsys):
    """`main` takes its directions from the BENCHMARK.json at the root of the
    repository, which lists `wall_ref` as lower-is-better."""
    script = load_script()
    paths = []
    for doc in (bench("pr-parent", PARENT_WALL), bench("pr", [w + 3.0 for w in PARENT_WALL])):
        paths.append(tmp_path / f"BENCH_{doc['tag']}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    assert script.main([str(p) for p in paths]) == 0
    out = capsys.readouterr().out.splitlines()
    (wall,) = [line for line in out if line.strip().startswith("wall_ref:")]
    assert "won 0/10 (lost 10)" in wall and "gain no" in wall


def test_never_imports_partqr():
    source = SCRIPT.read_text(encoding="utf-8")
    assert "partqr" not in "".join(
        line for line in source.splitlines() if line.startswith(("import", "from"))
    )


def traced_run(s, kernel, **calls):
    return {"metrics": {"partition.build_cart.s": s, "kernel_s": kernel, **calls}}


def test_traced_ratios_take_each_seeds_median_over_its_repeats():
    """A seed holds a list of repeats; one stored alone, as in a file recorded
    before repeats, is a single repeat."""
    script = load_script()
    doc = bench("a", PARENT_WALL)
    doc["workloads"]["grid"]["traced"] = {"seeds": {
        "301": [traced_run(1.0, 0.04), traced_run(3.0, 0.04), traced_run(0.9, 0.03)],
        "302": [traced_run(0.8, 0.04)],
        "303": traced_run(1.2, 0.04),
    }}
    per_seed = [statistics.median([1.0 / 0.04, 3.0 / 0.04, 0.9 / 0.03]), 0.8 / 0.04, 1.2 / 0.04]
    assert script.traced_ratios(doc, "grid")["partition.build_cart.s"] == statistics.median(per_seed)
    assert script.traced_ranges(doc, "grid")["partition.build_cart.s"] == (min(per_seed), max(per_seed))


def test_report_prints_each_traced_count_that_differs():
    script = load_script()
    counts = {"linear.fit_quantile.calls": 64, "partition.route.calls": 5}

    def doc(tag, changed):
        d = bench(tag, PARENT_WALL)
        d["workloads"]["grid"]["traced"] = {"seeds": {
            seed: [traced_run(1.0, 0.04, **{**counts, **changed.get(seed, {})})] * 3
            for seed in ("301", "302", "303")
        }}
        return d

    parent = doc("pr-parent", {})
    out = script.report(parent, parent, BETTER)
    assert [line for line in out if "traced count" in line] == ["  traced counts equal"]
    change = doc("pr", {"302": {"linear.fit_quantile.calls": 60}, "303": {"partition.route.calls": 0}})
    del change["workloads"]["grid"]["traced"]["seeds"]["301"][0]["metrics"]["partition.route.calls"]
    change["workloads"]["grid"]["traced"]["seeds"]["304"] = [traced_run(1.0, 0.04, extra_calls=1)]
    assert [line for line in script.report(parent, change, BETTER) if "traced count" in line] == [
        "  traced count differs: partition.route.calls seed 301: 5 -> None",
        "  traced count differs: linear.fit_quantile.calls seed 302: 64 -> 60",
        "  traced count differs: partition.route.calls seed 303: 5 -> 0",
    ]
    # without a traced seed on both sides there is nothing to compare
    assert not [line for line in script.report(bench("a", PARENT_WALL), change, BETTER) if "traced count" in line]
