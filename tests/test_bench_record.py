"""`scripts/bench_record.py` with its child processes replaced by canned runs."""

import importlib.util
import statistics
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
# a metric value per seed whose median is not the first seed's
VALUES = {301: 5.0, 302: 1.0, 303: 3.0, 304: 9.0}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(monkeypatch, tmp_path, calls=lambda run, trace: 10 * trace, ratio=None):
    """The documents `record` makes of two checkouts, "a" and "b"; the
    (tag, workload, seed, trace) of every perfbench run, in order; and every
    event in order: ("run", tag, workload, seed, trace) or ("kernel", seconds)
    for a timing of the stubbed reference kernel. A run's `layer.calls` is
    `calls(i, trace)`, i counting the runs from 0, and its
    `layer.distinct_ratio`, if `ratio` is given, `ratio(i, trace)`."""
    script = load_script()
    roots = {"a": str(tmp_path / "a"), "b": str(tmp_path / "b")}
    tags = {root: tag for tag, root in roots.items()}
    events = []

    def kernel_seconds():
        seconds = 0.01 * (len(events) + 1)  # a kernel that slows down, so every timing differs
        events.append(("kernel", seconds))
        return seconds

    def run_perfbench(root, workload, seed, trace):
        i = sum(event[0] == "run" for event in events)
        events.append(("run", tags[root], workload, seed, trace))
        value = VALUES.get(seed, 0.0) + (0.5 if tags[root] == "b" else 0.0) + 100 * trace
        metrics = {"wall_ref": value, "layer.calls": calls(i, trace)}
        if ratio is not None:
            metrics["layer.distinct_ratio"] = ratio(i, trace)
        return {
            "machine": {"nproc": 2, "python": "3", "numpy": "2", "scipy": "1"},
            "correct": True,
            "failed": 0,
            "attempted": 1,
            "metrics": metrics,
        }

    def no_child(*args, **kwargs):
        raise AssertionError(f"a child process started: {args}")

    monkeypatch.setattr(script, "run_perfbench", run_perfbench)
    monkeypatch.setattr(script, "kernel_seconds", kernel_seconds)
    monkeypatch.setattr(script, "run_tier1", lambda root: {"passed": 1, "summary": "1 passed"})
    monkeypatch.setattr(script, "_git", lambda root, *args: "")  # reads the commit through git
    for name in ("run", "Popen", "call", "check_call", "check_output"):
        monkeypatch.setattr(subprocess, name, no_child)
    docs = script.record(list(roots.items()), log=lambda line: None)
    runs = [event[1:] for event in events if event[0] == "run"]
    return script, docs, runs, events


@pytest.fixture
def recorded(monkeypatch, tmp_path):
    return record(monkeypatch, tmp_path)


def test_runs_alternate_the_checkouts(recorded):
    script, _, runs, _ = recorded
    repeated = [seed for seed in script.TRACED_SEEDS for _ in range(3)]
    for workload in script.WORKLOADS:
        for trace, seeds in ((0, script.SEEDS), (1, repeated)):
            got = [(tag, seed) for tag, w, seed, t in runs if w == workload and t == trace]
            want = [
                (tag, seed)
                for i, seed in enumerate(seeds)
                for tag in ("ab" if i % 2 == 0 else "ba")
            ]
            assert got == want
    assert script.TRACED_SEEDS == (301, 302, 303) and script.TRACED_REPEATS == 3


def test_traced_runs_keep_every_seed_and_their_medians(recorded):
    script, docs, _, _ = recorded
    for tag, shift in (("a", 0.0), ("b", 0.5)):
        for workload in script.WORKLOADS:
            traced = docs[tag]["workloads"][workload]["traced"]
            assert sorted(traced["seeds"]) == ["301", "302", "303"]
            for seed, runs in traced["seeds"].items():
                assert len(runs) == 3
                for run in runs:
                    assert "machine" not in run and run["correct"]
                    assert run["metrics"]["wall_ref"] == VALUES[int(seed)] + shift + 100
            want = statistics.median(VALUES[s] + shift + 100 for s in (301, 302, 303))
            # the median over seeds of each seed's median over its repeats
            kernel = statistics.median(
                statistics.median(run["metrics"]["kernel_s"] for run in runs)
                for runs in traced["seeds"].values()
            )
            assert traced["median"] == {"wall_ref": want, "layer.calls": 10, "kernel_s": kernel}
            timed = docs[tag]["workloads"][workload]
            assert len(timed["seeds"]) == len(script.SEEDS)
            assert timed["median"]["wall_ref"] == statistics.median(
                VALUES.get(s, 0.0) + shift for s in script.SEEDS
            )
        assert docs[tag]["tier1"]["passed"] == 1
        assert docs[tag]["nproc"] == 2


def test_kernel_is_timed_just_before_and_after_each_traced_run(recorded):
    script, docs, runs, events = recorded
    traced = [i for i, event in enumerate(events) if event[0] == "run" and event[4] == 1]
    assert len(traced) == 2 * len(script.WORKLOADS) * len(script.TRACED_SEEDS) * script.TRACED_REPEATS
    # two timings per traced run, and none around a timed run
    assert sum(event[0] == "kernel" for event in events) == 2 * len(traced)
    repeat = {}
    for i in traced:
        (before, s_before), (after, s_after) = events[i - 1], events[i + 1]
        assert before == after == "kernel"
        _, tag, workload, seed, _ = events[i]
        k = repeat[tag, workload, seed] = repeat.get((tag, workload, seed), -1) + 1
        metrics = docs[tag]["workloads"][workload]["traced"]["seeds"][str(seed)][k]["metrics"]
        assert metrics["kernel_s"] == (s_before + s_after) / 2
    for tag, workload, seed, trace in runs:
        if trace == 0:
            assert "kernel_s" not in docs[tag]["workloads"][workload]["seeds"][str(seed)]["metrics"]


def test_src_lines_counts_the_py_files_under_src(tmp_path):
    script = load_script()
    package = tmp_path / "src" / "pkg"
    (package / "sub").mkdir(parents=True)
    (package / "__pycache__").mkdir()
    (package / "a.py").write_text("one\ntwo\nthree\n", encoding="utf-8")
    (package / "sub" / "b.py").write_text("four\n", encoding="utf-8")
    (package / "notes.txt").write_text("not\ncode\n", encoding="utf-8")
    (package / "__pycache__" / "c.py").write_text("cached\n", encoding="utf-8")
    (tmp_path / "setup.py").write_text("outside\n", encoding="utf-8")
    assert script._src_lines(str(tmp_path)) == 4
    digest = script._source_sha256(str(tmp_path))
    (package / "__pycache__" / "c.py").write_text("cached again\n", encoding="utf-8")
    assert script._source_sha256(str(tmp_path)) == digest
    (package / "notes.txt").write_text("changed\n", encoding="utf-8")
    assert script._source_sha256(str(tmp_path)) != digest


def test_each_checkout_records_its_src_lines(recorded):
    _, docs, _, _ = recorded
    assert docs["a"]["src_lines"] == docs["b"]["src_lines"] == 0  # the stub roots hold no src/


def test_repeats_that_disagree_on_a_count_stop_the_script(monkeypatch, tmp_path):
    """Run 22 is qtree-grid's third traced run, after its 20 timed ones:
    the second repeat of checkout "b" at seed 301, the repeats going A B,
    then B A. Its count differs from the first repeat's, and the script
    raises."""
    with pytest.raises(RuntimeError, match=r"b qtree-grid seed 301: traced counts differ between repeats"):
        record(monkeypatch, tmp_path, calls=lambda i, trace: 11 if i == 22 else 10 * trace)


def test_repeats_that_disagree_on_a_distinct_ratio_stop_the_script(monkeypatch, tmp_path):
    """The same run 22 with equal `.calls` but another `.distinct_ratio`
    stops the script too; ratios that agree across repeats do not."""
    record(monkeypatch, tmp_path, ratio=lambda i, trace: 0.2)
    with pytest.raises(RuntimeError, match=r"b qtree-grid seed 301: traced counts differ between repeats: "
                                           r".*'layer\.distinct_ratio': 0\.2.* then .*'layer\.distinct_ratio': 0\.4"):
        record(monkeypatch, tmp_path, ratio=lambda i, trace: 0.4 if i == 22 else 0.2)
