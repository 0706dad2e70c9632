"""Record seeded perfbench runs and Tier-1 of two checkouts as BENCH_<tag>.json.

    python scripts/bench_record.py --checkout base=../base --checkout head=. --out-dir .

The two `--checkout TAG=PATH` options name the roots of two checkouts of this
repository. For every workload in WORKLOADS and seed in SEEDS the checkouts
run `perfbench/run.py --seconds SECONDS` one after the other, as child
processes from their own roots, in turn order A B, then B A for the next
seed, so that their runs alternate on one machine. The script reads only
what a run prints: the first line (nproc and versions) and the last one (the
JSON result). It never imports partqr and never passes a run anything but
the documented flags, so it cannot change a measured value or a check.

Traced runs (`--trace 1`) at each of the first three seeds, TRACED_SEEDS,
record the per-layer metrics, among them every `.calls` count and
`.distinct_ratio`, which repeat exactly (COUNTS). Each traced seed runs
TRACED_REPEATS times per checkout, and the repeats alternate between the
checkouts as the timed runs do; every repeat is kept, as a list under its
seed, and a seed whose repeats disagree on any of those counts stops the
script. Their seconds are raw seconds, which follow the
machine's speed, so the script times perfbench's `ReferenceKernel` (from
its own checkout) in its own process just before and just after each
traced run and stores the mean of the two as that run's `kernel_s` metric:
read a per-layer `s` as `s / kernel_s` across phases of the machine, and
a seed's as the median over its repeats. Tier-1 then runs once per
checkout. Each checkout's file holds its commit, the line count of the
`.py` files under its `src/` (`src_lines`), nproc, the Python, numpy and
scipy versions, the per-seed end-to-end metrics and their medians, the
per-seed traced repeats and the median over seeds of each seed's median,
and Tier-1's pass, fail and skip counts with its wall time.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import importlib.util
import json
import os
import re
import statistics
import subprocess
import sys
import time

WORKLOADS = ("qtree-grid", "ensemble-grid", "predict-batch")
SEEDS = tuple(range(301, 311))
TRACED_SEEDS = SEEDS[:3]
TRACED_REPEATS = 3
SECONDS = 15
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
_HEADER = re.compile(
    r"nproc (?P<nproc>\d+), python (?P<python>\S+), numpy (?P<numpy>\S+), scipy (?P<scipy>\S+)$"
)
_SUMMARY = re.compile(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed)")
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "reference.py")


@functools.cache
def _reference_kernel():
    """perfbench's `ReferenceKernel`, which uses numpy and scipy only."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    kernel = module.ReferenceKernel()
    kernel.run()  # once, so that the first timing is not a cold one
    return kernel


def kernel_seconds() -> float:
    """One run of the reference kernel in this process, in seconds."""
    return _reference_kernel().seconds()


def _checkout(text: str) -> tuple[str, str]:
    tag, sep, path = text.partition("=")
    if not sep or not tag or not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
        raise argparse.ArgumentTypeError(f"{text!r} is not TAG=PATH of a checkout with perfbench/run.py")
    return tag, os.path.abspath(path)


def _git(root: str, *args: str) -> str:
    done = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def _source_files(root: str):
    """Every file under src/ but __pycache__, in a fixed order, as (its path
    relative to src/, its contents)."""
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")  # in place, so walk skips them
        for name in sorted(files):
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                yield os.path.relpath(path, src), fh.read()


def _source_sha256(root: str) -> str:
    """One digest of every file under src/ but __pycache__, by relative path and content."""
    digest = hashlib.sha256()
    for rel, data in _source_files(root):
        digest.update(rel.encode() + b"\0")
        digest.update(data)
    return digest.hexdigest()


def _src_lines(root: str) -> int:
    """The line count of the .py files under src/."""
    return sum(data.count(b"\n") for rel, data in _source_files(root) if rel.endswith(".py"))


def run_perfbench(root: str, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` child process: its header fields and JSON result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} in {root} exited {done.returncode}: {done.stderr[-2000:]}")
    header = _HEADER.search(lines[0])
    machine = header.groupdict() if header else {}
    if "nproc" in machine:
        machine["nproc"] = int(machine["nproc"])
    result = json.loads(lines[-1])
    return {
        "machine": machine,
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def run_tier1(root: str) -> dict:
    """Tier-1 in `root` with its src/ on the path: counts from pytest's summary line."""
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {"passed": 0, "failed": 0, "skipped": 0, "errors": 0}
    for count, kind in _SUMMARY.findall(summary):
        kind = "errors" if kind.startswith("error") else kind
        counts[kind] = counts.get(kind, 0) + int(count)
    return {**counts, "exit_code": done.returncode, "wall_s": round(wall_s, 2), "summary": summary}


def _medians(runs) -> dict:
    """Each metric's median over the runs."""
    runs = list(runs)
    return {name: statistics.median(r["metrics"][name] for r in runs) for name in runs[0]["metrics"]}


# the traced metrics that repeat exactly from run to run
COUNTS = (".calls", ".distinct_ratio")


def _counts(run: dict) -> dict:
    return {name: value for name, value in run["metrics"].items() if name.endswith(COUNTS)}


def _alternate(checkouts, seeds):
    """(seed, tag, root) for every entry of `seeds` (a seed may repeat) and
    checkout, in turn order A B, then B A for the next entry."""
    for i, seed in enumerate(seeds):
        for tag, root in checkouts if i % 2 == 0 else checkouts[::-1]:
            yield seed, tag, root


def record(checkouts, log=print) -> dict:
    """Run everything for the two (tag, root) checkouts; one BENCH document per tag."""
    docs = {}
    for tag, root in checkouts:
        docs[tag] = {
            "tag": tag,
            "commit": _git(root, "rev-parse", "HEAD"),
            "dirty": bool(_git(root, "status", "--porcelain", "--", "src")),
            "source_sha256": _source_sha256(root),
            "src_lines": _src_lines(root),
            "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "paired_with": next(t for t, _ in checkouts if t != tag),
            "command": f"perfbench/run.py --seconds {SECONDS}",
            "workloads": {},
        }
    for workload in WORKLOADS:
        for seed, tag, root in _alternate(checkouts, SEEDS):
            run = run_perfbench(root, workload, seed, 0)
            docs[tag].update(run.pop("machine"))
            docs[tag]["workloads"].setdefault(workload, {"seeds": {}})["seeds"][str(seed)] = run
            log(f"{tag} {workload} {seed}: wall_ref {run['metrics']['wall_ref']:.3f} correct {run['correct']}")
        repeated = [seed for seed in TRACED_SEEDS for _ in range(TRACED_REPEATS)]
        for seed, tag, root in _alternate(checkouts, repeated):
            before = kernel_seconds()
            run = run_perfbench(root, workload, seed, 1)
            run["metrics"]["kernel_s"] = (before + kernel_seconds()) / 2
            run.pop("machine")
            entry = docs[tag]["workloads"][workload]
            runs = entry.setdefault("traced", {"seeds": {}})["seeds"].setdefault(str(seed), [])
            runs.append(run)
            if _counts(run) != _counts(runs[0]):
                raise RuntimeError(
                    f"{tag} {workload} seed {seed}: traced counts differ between repeats: "
                    f"{_counts(runs[0])} then {_counts(run)}"
                )
            log(f"{tag} {workload} {seed} traced repeat {len(runs)}: correct {run['correct']}")
        for tag, _ in checkouts:
            entry = docs[tag]["workloads"][workload]
            entry["median"] = _medians(entry["seeds"].values())
            traced = entry["traced"]
            traced["median"] = _medians({"metrics": _medians(runs)} for runs in traced["seeds"].values())
    for tag, root in checkouts:
        docs[tag]["tier1"] = run_tier1(root)
        log(f"{tag} tier-1: {docs[tag]['tier1']['summary']}")
    return docs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=_checkout, action="append", required=True,
                        metavar="TAG=PATH", help="one of the two checkouts to alternate; give it twice")
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args(argv)
    tags = [tag for tag, _ in args.checkout]
    if len(tags) != 2 or tags[0] == tags[1]:
        parser.error(f"give --checkout exactly twice, with two different tags: {tags}")

    docs = record(args.checkout, log=lambda line: print(line, file=sys.stderr, flush=True))
    for tag, doc in docs.items():
        path = os.path.join(args.out_dir, f"BENCH_{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
